import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

EXISTENCE_TABLE_N4 = """\
n = 4, digraphs per class: StronglyConnectedEven=1606, SingleInitialEven=2008, ConnectedEven=220
kind               StronglyConnectedEven       SingleInitialEven           ConnectedEven
perfect                        888/1606               1328/2008                156/220  
almost-perfect                1606/1606               2008/2008                192/220  
weak-perfect                  1606/1606               2008/2008                192/220  
even                          1606/1606               2008/2008                192/220  
"""


def test_existence_table_n4():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "existence_table.py"), "--n", "4"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == EXISTENCE_TABLE_N4

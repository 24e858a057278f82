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


def run_script(name, *args, flags=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *flags, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_existence_table_n4():
    proc = run_script("existence_table.py", "--n", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == EXISTENCE_TABLE_N4


def test_find_swap_witness_max_1():
    # the script checks its result without assert, so -O keeps the check
    for flags in ((), ("-O",)):
        proc = run_script("find_swap_witness.py", "--max", "1", flags=flags)
        assert proc.returncode == 0, (flags, proc.stderr)
        witnesses = [line for line in proc.stdout.splitlines() if line.startswith("[")]
        assert len(witnesses) == 1, (flags, proc.stdout)

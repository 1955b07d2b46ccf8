"""Tests for the repository tools under tools/."""

import sys
import threading
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_pinned_mutant_workers_each_hold_their_own_src_copy(monkeypatch, capsys):
    # more workers than cores, a short switch interval, and a stand-in
    # pytest that checks its copy: no other run holds it, and it differs
    # from src/ by exactly the one replacement of one row
    monkeypatch.syspath_prepend(str(TOOLS))
    import pinned_mutants

    pristine = {
        path.name: path.read_text()
        for path in (pinned_mutants.ROOT / "src" / "kdvb").glob("*.py")
    }
    lock = threading.Lock()
    in_use, faults = set(), []

    def fake_run_pytest(cwd, src, nodes, timeout):
        with lock:
            if src in in_use:
                faults.append(f"{src} used by two runs")
            in_use.add(src)
        try:
            if len(nodes) > 1:
                return 0  # the unmutated run of every node passes
            changed = [
                name
                for name, text in pristine.items()
                if (src / "kdvb" / name).read_text() != text
            ]
            rows = [row for row in pinned_mutants.MUTANTS if row[3] == nodes[0]]
            mutated = any(
                changed == [name]
                and (src / "kdvb" / name).read_text()
                == pristine[name].replace(source, mutant)
                for name, source, mutant, _ in rows
            )
            if not mutated:
                faults.append(f"{nodes[0]} ran on {changed}")
            time.sleep(0.001)
            return 1  # the node fails on its mutant
        finally:
            with lock:
                in_use.discard(src)

    monkeypatch.setattr(pinned_mutants, "run_pytest", fake_run_pytest)
    monkeypatch.setattr(pinned_mutants.os, "cpu_count", lambda: 8)
    codes = []
    runner = threading.Thread(target=lambda: codes.append(pinned_mutants.main()), daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert faults == []
    assert codes == [0]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [
        f"killed: {name}: {mutant!r} by {node}"
        for name, _, mutant, node in pinned_mutants.MUTANTS
    ]

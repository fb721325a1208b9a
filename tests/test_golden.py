"""Golden output digests: every case in ``golden/regen.py`` writes the recorded bytes.

A stream change anywhere in a sampler (an extra draw, a reordered draw, one
ULP in a logged value) changes a digest here.  Regenerate the table only
through ``golden/regen.py``, and only for a change meant to alter output.
"""

import json

import numpy as np

from golden.regen import CASES, DIGESTS, changes, run_case


def test_golden_digests(tmp_path):
    with open(DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)
    assert table["numpy"] == np.__version__, (
        f"golden digests were generated with numpy {table['numpy']}, this is numpy "
        f"{np.__version__}: sampling streams may differ between numpy versions, so "
        f"regenerate the table under numpy {np.__version__} from a tree known to be good")
    assert [case["argv"] for case in table["cases"]] == CASES
    changed = []
    for i, case in enumerate(table["cases"]):
        code, files = run_case(case["argv"], str(tmp_path / f"case{i:02d}"))
        if (code, files) != (case["exit"], case["files"]):
            differing = sorted(name for name in set(files) | set(case["files"])
                               if files.get(name) != case["files"].get(name))
            changed.append(f"{' '.join(case['argv'])}: exit {code} (recorded "
                           f"{case['exit']}), differing files {differing}")
    assert not changed, "output changed:\n" + "\n".join(changed)


def test_regen_lists_each_changed_case_and_its_moved_files():
    old = [{"argv": ["a"], "exit": 0, "files": {"x.csv": "1", "x.json": "2"}},
           {"argv": ["b"], "exit": 0, "files": {"y.csv": "3"}},
           {"argv": ["c"], "exit": 0, "files": {"z.csv": "4"}}]
    new = [{"argv": ["a"], "exit": 0, "files": {"x.csv": "9", "x.json": "2"}},
           {"argv": ["b"], "exit": 0, "files": {"y.csv": "3"}},
           {"argv": ["c"], "exit": 1, "files": {}},
           {"argv": ["d"], "exit": 0, "files": {}}]
    assert changes(old, new) == ["a: files ['x.csv']", "c: exit 0 -> 1; files ['z.csv']",
                                 "new case: d"]
    assert changes(old, old) == []

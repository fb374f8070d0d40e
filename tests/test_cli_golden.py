"""Golden CLI output: the exact stdout of every command and format.

The inputs are the golden A/B pair, a second system class D that overlaps
A, and a two-level expert hierarchy. D competes with A for a column under
both experts, so every ``--trace`` case renders a re-map event. The tests
run from the input directory, so the printed paths are relative.
"""

from __future__ import annotations

import pytest

from clustereval.cli import main

from conftest import CLASS_A_MEMBERS, CLASS_B_MEMBERS, clustering_doc, hierarchy_doc, node


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    system = [("A", CLASS_A_MEMBERS), ("D", ["cat", "dog", "cow", "horse", "mare"])]
    tree = node(
        "ANIMAL",
        ["horse", "cow"],
        children=[node("PET", ["cat", "dog"]), node("FARM", ["pig", "cattle", "goat", "swine"])],
    )
    (tmp_path / "sys.json").write_text(clustering_doc(system), encoding="utf-8")
    (tmp_path / "exp.json").write_text(clustering_doc([("B", CLASS_B_MEMBERS)]), encoding="utf-8")
    (tmp_path / "tree.json").write_text(hierarchy_doc([tree]), encoding="utf-8")
    monkeypatch.chdir(tmp_path)


CASES = [
    pytest.param(
        "evaluate --expert tree.json",
        """\
evaluation: sys.json vs tree.json
config: threshold=0.2 flatten=inherit unmapped-cols=all-columns
mapped pairs (2):
  A -> ANIMAL  yy=6 yn=2 ny=2  P=75.00 R=75.00 F=0.75
  D -> ANIMAL/PET  yy=2 yn=3 ny=0  P=40.00 R=100.00 F=0.57
unmapped expert columns: ANIMAL/FARM(4)
overall: yy=8 yn=5 ny=6
precision=61.54 recall=57.14 f-measure=0.59
""",
        id="evaluate-text",
    ),
    pytest.param(
        "evaluate --expert tree.json --trace",
        """\
evaluation: sys.json vs tree.json
config: threshold=0.2 flatten=inherit unmapped-cols=all-columns
mapped pairs (2):
  A -> ANIMAL  yy=6 yn=2 ny=2  P=75.00 R=75.00 F=0.75
  D -> ANIMAL/PET  yy=2 yn=3 ny=0  P=40.00 R=100.00 F=0.57
unmapped expert columns: ANIMAL/FARM(4)
overall: yy=8 yn=5 ny=6
precision=61.54 recall=57.14 f-measure=0.59
trace:
  D: ANIMAL -> ANIMAL/PET  loss=0.0440
""",
        id="evaluate-text-trace",
    ),
    pytest.param(
        "evaluate --expert exp.json --expert tree.json",
        """\
evaluation: sys.json vs exp.json
config: threshold=0.2 flatten=inherit unmapped-cols=all-columns
mapped pairs (1):
  A -> B  yy=6 yn=2 ny=5  P=75.00 R=54.55 F=0.63
unmapped system classes: D(5)
overall: yy=6 yn=7 ny=5
precision=46.15 recall=54.55 f-measure=0.50

evaluation: sys.json vs tree.json
config: threshold=0.2 flatten=inherit unmapped-cols=all-columns
mapped pairs (2):
  A -> ANIMAL  yy=6 yn=2 ny=2  P=75.00 R=75.00 F=0.75
  D -> ANIMAL/PET  yy=2 yn=3 ny=0  P=40.00 R=100.00 F=0.57
unmapped expert columns: ANIMAL/FARM(4)
overall: yy=8 yn=5 ny=6
precision=61.54 recall=57.14 f-measure=0.59

summary:
expert     precision     recall  f-measure
exp.json       46.15      54.55       0.50
tree.json      61.54      57.14       0.59
""",
        id="evaluate-text-summary",
    ),
    pytest.param(
        "evaluate --expert tree.json --format json",
        """\
{
  "system": "sys.json",
  "experts": [
    {
      "expert": "tree.json",
      "config": {
        "threshold": 0.2,
        "flatten_mode": "inherit",
        "unmapped_columns_policy": "all-columns"
      },
      "overall": {
        "yy": 8,
        "yn": 5,
        "ny": 6,
        "precision": 0.6153846153846154,
        "recall": 0.5714285714285714,
        "f_measure": 0.5925925925925926
      },
      "pairs": [
        {
          "system_class": "A",
          "expert_column": "ANIMAL",
          "yy": 6,
          "yn": 2,
          "ny": 2,
          "precision": 0.75,
          "recall": 0.75,
          "f_measure": 0.75
        },
        {
          "system_class": "D",
          "expert_column": "ANIMAL/PET",
          "yy": 2,
          "yn": 3,
          "ny": 0,
          "precision": 0.4,
          "recall": 1.0,
          "f_measure": 0.5714285714285714
        }
      ],
      "unmapped_system": [],
      "unmapped_expert": [
        {
          "column": "ANIMAL/FARM",
          "size": 4
        }
      ]
    }
  ]
}
""",
        id="evaluate-json",
    ),
    pytest.param(
        "evaluate --expert exp.json --format json --trace",
        """\
{
  "system": "sys.json",
  "experts": [
    {
      "expert": "exp.json",
      "config": {
        "threshold": 0.2,
        "flatten_mode": "inherit",
        "unmapped_columns_policy": "all-columns"
      },
      "overall": {
        "yy": 6,
        "yn": 7,
        "ny": 5,
        "precision": 0.46153846153846156,
        "recall": 0.5454545454545454,
        "f_measure": 0.5
      },
      "pairs": [
        {
          "system_class": "A",
          "expert_column": "B",
          "yy": 6,
          "yn": 2,
          "ny": 5,
          "precision": 0.75,
          "recall": 0.5454545454545454,
          "f_measure": 0.631578947368421
        }
      ],
      "unmapped_system": [
        {
          "label": "D",
          "size": 5
        }
      ],
      "unmapped_expert": [],
      "trace": [
        {
          "system_class": "D",
          "from_column": "B",
          "to_column": null,
          "loss": 0.625
        }
      ]
    }
  ]
}
""",
        id="evaluate-json-trace",
    ),
    pytest.param(
        "table --expert tree.json",
        """\
f-table: sys.json vs tree.json (2 rows x 3 cols, threshold=0.2)
   ANIMAL  ANIMAL/PET  ANIMAL/FARM
A  0.7500      0.4000       0.5000
D  0.6154      0.5714       0.0000
mapping:
  A -> ANIMAL  F=0.7500
  D -> ANIMAL/PET  F=0.5714  (re-mapped)
unmapped cols: ANIMAL/FARM
""",
        id="table-text",
    ),
    pytest.param(
        "table --expert exp.json --expert tree.json --trace",
        """\
f-table: sys.json vs exp.json (2 rows x 1 cols, threshold=0.2)
        B
A  0.6316
D  0.6250
mapping:
  A -> B  F=0.6316
unmapped rows: D
trace:
  D: B -> unmapped  loss=0.6250

f-table: sys.json vs tree.json (2 rows x 3 cols, threshold=0.2)
   ANIMAL  ANIMAL/PET  ANIMAL/FARM
A  0.7500      0.4000       0.5000
D  0.6154      0.5714       0.0000
mapping:
  A -> ANIMAL  F=0.7500
  D -> ANIMAL/PET  F=0.5714  (re-mapped)
unmapped cols: ANIMAL/FARM
trace:
  D: ANIMAL -> ANIMAL/PET  loss=0.0440
""",
        id="table-text-trace",
    ),
    pytest.param(
        "table --expert tree.json --format json",
        """\
{
  "system": "sys.json",
  "experts": [
    {
      "expert": "tree.json",
      "threshold": 0.2,
      "rows": [
        "A",
        "D"
      ],
      "columns": [
        "ANIMAL",
        "ANIMAL/PET",
        "ANIMAL/FARM"
      ],
      "cells": [
        [
          0.75,
          0.4,
          0.5
        ],
        [
          0.6153846153846154,
          0.5714285714285714,
          0.0
        ]
      ],
      "mapping": {
        "pairs": [
          {
            "system_class": "A",
            "expert_column": "ANIMAL",
            "f_measure": 0.75
          },
          {
            "system_class": "D",
            "expert_column": "ANIMAL/PET",
            "f_measure": 0.5714285714285714
          }
        ],
        "unmapped_rows": [],
        "unmapped_cols": [
          "ANIMAL/FARM"
        ]
      }
    }
  ]
}
""",
        id="table-json",
    ),
    pytest.param(
        "table --expert exp.json --format json --trace",
        """\
{
  "system": "sys.json",
  "experts": [
    {
      "expert": "exp.json",
      "threshold": 0.2,
      "rows": [
        "A",
        "D"
      ],
      "columns": [
        "B"
      ],
      "cells": [
        [
          0.631578947368421
        ],
        [
          0.625
        ]
      ],
      "mapping": {
        "pairs": [
          {
            "system_class": "A",
            "expert_column": "B",
            "f_measure": 0.631578947368421
          }
        ],
        "unmapped_rows": [
          "D"
        ],
        "unmapped_cols": []
      },
      "trace": [
        {
          "system_class": "D",
          "from_column": "B",
          "to_column": null,
          "loss": 0.625
        }
      ]
    }
  ]
}
""",
        id="table-json-trace",
    ),
    pytest.param(
        "sweep --expert exp.json --expert tree.json --thresholds 0.2,0.62,0.7",
        """\
expert,threshold,mapped_pairs,precision,recall,f_measure
exp.json,0.2,1,0.46153846153846156,0.5454545454545454,0.5
exp.json,0.62,1,0.46153846153846156,0.5454545454545454,0.5
exp.json,0.7,0,0.0,0.0,0.0
tree.json,0.2,2,0.6153846153846154,0.5714285714285714,0.5925925925925926
tree.json,0.62,1,0.46153846153846156,0.42857142857142855,0.4444444444444444
tree.json,0.7,1,0.46153846153846156,0.42857142857142855,0.4444444444444444
""",
        id="sweep",
    ),
    pytest.param(
        "baseline --expert exp.json",
        """\
pair baseline: sys.json vs exp.json
system pairs=35 expert pairs=55
contingency: yy=22 yn=13 ny=33
precision=62.86 recall=40.00 f-measure=0.49
warning: sys.json is not a partition; overlapping pairs were deduplicated
""",
        id="baseline",
    ),
]


@pytest.mark.parametrize("argv, expected", CASES)
def test_cli_stdout_is_pinned(capsys, inputs, argv, expected):
    command, *rest = argv.split()
    assert main([command, "--system", "sys.json", *rest]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""

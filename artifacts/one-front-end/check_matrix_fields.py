"""Checks that a matrix report keeps every field of an older report with
the same value (new fields may be added).

    python3 check_matrix_fields.py parent-matrix-small.json matrix-small.json
"""
import json
import sys

par = json.load(open(sys.argv[1]))
ch = json.load(open(sys.argv[2]))
assert par["seed"] == ch["seed"] and par["duration_us"] == ch["duration_us"]
assert len(par["cells"]) == len(ch["cells"])
for a, b in zip(par["cells"], ch["cells"]):
    for k, v in a.items():
        assert b[k] == v, (a["cell"], k, v, b[k])
print("matrix-small: all", len(par["cells"]),
      "cells equal in every parent field; new fields:",
      sorted(set(ch["cells"][0]) - set(par["cells"][0])))

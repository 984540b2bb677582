"""Checks that every row of the old `fault_sweep` example's table has a
cell in `netaware-cli matrix --config ci/fault-sweep.json` with the same
continuity, worst probe, packets dropped, requests re-queued and
departures.

    python3 check_fault_sweep.py parent-fault_sweep.txt fault-sweep.md
"""
import sys

PROFILE = {"PPLive": "pplive", "SopCast": "sopcast", "TVAnts": "tvants",
           "PPLive-Unpop": "pplive-unpop", "NAPA-NG": "napa-ng",
           "Epidemic-RP": "epidemic-rp", "Epidemic-BA": "epidemic-ba"}
PLAN = {"clean": "static/clean", "loss 2%": "static/loss-2",
        "loss 5%": "static/loss-5", "loss 10%": "static/loss-10",
        "loss 20%": "static/loss-20", "churn": "churn/clean",
        "churn+5%": "churn/loss-5"}

cells = {}
for line in open(sys.argv[2]):
    f = [x.strip() for x in line.strip().strip("|").split("|")]
    if len(f) == 13 and "/x" in f[0]:
        departed = f[3].split("/")[0]
        cells[f[0]] = (f[1], f[10], f[11], f[12], departed)

rows = 0
for line in open(sys.argv[1]).read().splitlines()[1:]:
    left, mid, right = line.split("|")
    app, label = left.split(None, 1)
    cont, worst = mid.split()
    dropped, requeued, departed = right.split()
    want = (cont, worst, dropped, requeued, departed)
    got = cells[f"{PROFILE[app]}/x0.03/{PLAN[label.strip()]}"]
    assert got == want, (line, got)
    rows += 1
print(f"fault sweep: all {rows} example rows match a matrix cell "
      "(continuity, worst, dropped, requeued, departed)")

"""Pin the seed-determined values of an e2e benchmark run.

At a fixed --seed and --seconds, `bench/e2e` prints the same virtual-time
and count metrics on every run and every host: on_time_frac,
rel_error_p50 and every io.*, sched.*, admission.* and cache.* value.
Host-time metrics (qps, latencies, per-layer microseconds) vary and are
left out.

    dune exec bench/e2e/main.exe -- \
        --seed 7 --seconds 10 --trace 1 --json e2e.json
    python3 bench/e2e_counts.py e2e.json          # compare with the file
    python3 bench/e2e_counts.py e2e.json --write  # rewrite the file

Run it from the repository root, where the file BENCH_e2e_counts.json
lives. The comparison is exact. It exits 1 naming every value that
moved, appeared or disappeared.
"""

import json
import sys

BASELINE = "BENCH_e2e_counts.json"
SCHEMA = "taqp-bench-e2e-counts/1"
EXACT = ("on_time_frac", "rel_error_p50")
PREFIXES = ("io.", "sched.", "admission.", "cache.")


def seed_determined(run):
    return {
        f"{r['workload']}:{r['metric']}": r["value"]
        for r in run["records"]
        if r["metric"] in EXACT or r["metric"].startswith(PREFIXES)
    }


def main(argv):
    if len(argv) not in (2, 3) or argv[2:] not in ([], ["--write"]):
        raise SystemExit(__doc__)
    run = json.load(open(argv[1]))
    values = seed_determined(run)
    if argv[2:] == ["--write"]:
        doc = {
            "schema": SCHEMA,
            "seed": run["seed"],
            "segments": run["segments"],
            "values": values,
        }
        with open(BASELINE, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {len(values)} values to {BASELINE}")
        return
    base = json.load(open(BASELINE))
    assert base["schema"] == SCHEMA, base.get("schema")
    assert base["seed"] == run["seed"], (base["seed"], run["seed"])
    pinned = base["values"]
    bad = [
        f"{k}: {pinned.get(k)!r} -> {values.get(k)!r}"
        for k in sorted(set(pinned) | set(values))
        if pinned.get(k) != values.get(k)
    ]
    if bad:
        print(f"seed-determined e2e values differ from {BASELINE}:")
        for line in bad:
            print(" ", line)
        raise SystemExit(1)
    print(f"e2e counts OK: {len(pinned)} values equal {BASELINE}")


if __name__ == "__main__":
    main(sys.argv)

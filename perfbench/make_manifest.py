#!/usr/bin/env python3
"""Regenerates the benchmark's kernel snapshot and its answer manifest.

Run once from the root of a source checkout, with a built `gropt`:

    python3 perfbench/make_manifest.py --gropt BUILD/gropt

It copies the MiniC text of the 40 corpus programs (the R"(...)" literal
in each src/corpus/*.cpp) and the 6 corpus/minic/*.mc kernels into
perfbench/kernels/, and writes perfbench/manifest.json with, per kernel:

  * the expected idiom counts: the paper-derived BenchmarkExpectations
    initializer of the corpus program, or for the .mc kernels the counts
    pinned in tests/MiniCCorpusTests.cpp (PINNED_MC below);
  * the expected `result` and printed output of `main`, taken from the
    tree-walking reference interpreter (`--exec=reference`) on the
    untransformed program.

The benchmark itself only reads the snapshot and the manifest, so a later
move or edit of the corpus cannot change a workload.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# BenchmarkExpectations field order (src/corpus/Corpus.h).
FIELDS = ["OurScalars", "OurHistograms", "Icc", "Polly", "SCoPs",
          "ReductionSCoPs", "OurScans", "OurArgMinMax"]

# corpus/minic kernels: four are twins of a corpus program (their counts
# are pinned to the twin's expectations); nbody and kmeans_assign have
# their scalar and argmin/argmax counts pinned directly. Neither has a
# histogram or scan loop.
PINNED_MC = {
    "cg": {"twin": "CG"},
    "hotspot": {"twin": "hotspot"},
    "is": {"twin": "IS"},
    "pathfinder": {"twin": "pathfinder"},
    "nbody": {"scalars": 2, "histograms": 0, "scans": 0, "argminmax": 0},
    "kmeans_assign": {"scalars": 1, "histograms": 0, "scans": 0,
                      "argminmax": 1},
}

# A program with no loops: the fixed start-up probe of both tools.
TRIVIAL = "int main() {\n  return 0;\n}\n"


def slug(text):
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


def parse_corpus_file(path):
    src = open(path).read()
    body = re.search(r'R"\((.*?)\)"', src, re.S)
    suite = re.search(r'B\.Suite = "([^"]+)"', src)
    name = re.search(r'B\.Name = "([^"]+)"', src)
    init = re.search(r"B\.Expected = \{(.*?)\};", src, re.S)
    if not (body and suite and name and init):
        return None
    values = [int(v) for v in
              re.sub(r"/\*.*?\*/", "", init.group(1)).split(",") if v.strip()]
    expected = dict(zip(FIELDS, values + [0] * (len(FIELDS) - len(values))))
    return {
        "suite": suite.group(1),
        "name": name.group(1),
        "source": body.group(1),
        "counts": {"scalars": expected["OurScalars"],
                   "histograms": expected["OurHistograms"],
                   "scans": expected["OurScans"],
                   "argminmax": expected["OurArgMinMax"]},
    }


def reference_run(gropt, path):
    out = subprocess.run([gropt, path, "--run", "--exec=reference"],
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    last = re.match(r"result: (-?\d+) ", lines[-1])
    if not last:
        sys.exit(f"unexpected reference output for {path}: {lines[-1]!r}")
    return int(last.group(1)), lines[:-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--gropt", required=True)
    ap.add_argument("--repo", default=".")
    args = ap.parse_args()

    corpus_dir = os.path.join(args.repo, "src", "corpus")
    programs = {}
    for fn in sorted(os.listdir(corpus_dir)):
        if fn.endswith(".cpp"):
            p = parse_corpus_file(os.path.join(corpus_dir, fn))
            if p:
                p["origin"] = "src/corpus/" + fn
                programs[p["name"]] = p
    if len(programs) != 40:
        sys.exit(f"expected 40 corpus programs, found {len(programs)}")

    kernels = []
    for p in programs.values():
        kernels.append({"name": slug(p["suite"] + "_" + p["name"]),
                        "origin": p["origin"], "source": p["source"],
                        "counts": p["counts"]})
    mc_dir = os.path.join(args.repo, "corpus", "minic")
    for stem, pin in sorted(PINNED_MC.items()):
        counts = (programs[pin["twin"]]["counts"] if "twin" in pin
                  else {k: pin[k] for k in
                        ("scalars", "histograms", "scans", "argminmax")})
        kernels.append({"name": "minic_" + stem,
                        "origin": f"corpus/minic/{stem}.mc",
                        "source": open(os.path.join(mc_dir, stem + ".mc")).read(),
                        "counts": dict(counts)})
    kernels.sort(key=lambda k: k["name"])

    kdir = os.path.join(HERE, "kernels")
    os.makedirs(kdir, exist_ok=True)
    entries = []
    for k in kernels:
        rel = f"kernels/{k['name']}.mc"
        with open(os.path.join(HERE, rel), "w") as f:
            f.write(k["source"])
        result, output = reference_run(args.gropt, os.path.join(HERE, rel))
        entries.append({"name": k["name"], "file": rel, "origin": k["origin"],
                        "counts": k["counts"], "result": result,
                        "output": output})
        print(f"{k['name']}: result={result} lines={len(output)}")

    with open(os.path.join(HERE, "trivial.mc"), "w") as f:
        f.write(TRIVIAL)
    manifest = {
        "about": "Expected answers for the perfbench kernel snapshot; "
                 "written by make_manifest.py.",
        "trivial": {"file": "trivial.mc",
                    "counts": {"scalars": 0, "histograms": 0, "scans": 0,
                               "argminmax": 0}},
        "kernels": entries,
    }
    with open(os.path.join(HERE, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()

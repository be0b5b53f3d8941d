#!/usr/bin/env python3
"""Check that two source trees give the same reports, byte for byte.

Runs one fixed list of ``gradiform`` reports in one subprocess per tree,
each with ``PYTHONPATH=<tree>/src``, and compares the sha256 of every
output with the report's ``timings`` emptied:

- every report of ``bench/workloads.py``'s three lists at seeds 0 and 11
  (the list is read from this checkout's ``bench/``, so it follows the
  benchmark), with every trajectory CSV they export;
- each subcommand at its default config (``simulate`` exporting its
  CSVs), and the default ``simulate`` with
  ``potential_source=gradientize``, its 8 starts in one lockstep of the
  base field, exporting its CSVs;
- the CI step's canonical-JSON ``graham`` runs: ``double_well``, the 3-D
  ``lorenz`` and ``quadratic`` runs, and the 4-D ``quadratic``;
- one config error, compared by exit code.

A mismatch prints the first differing JSON path and the largest relative
difference of the floats under that path's top-level key (for a CSV, the
first differing line and the largest relative difference of its cells).
Exits 0 when every output is identical, 1 on a mismatch, 2 when a tree
cannot run the list.

Example:
    python3 scripts/same_bytes.py --against ../parent-checkout
"""
import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 11)
DEFAULT_COMMANDS = ("zoo-list", "classify", "decompose", "gradientize",
                    "simulate", "graham")
_QUADRATIC3 = ["system.name=quadratic", "system.params.q_0_0=-1",
               "system.params.q_1_1=-1", "system.params.q_2_2=-1"]
CI_GRAHAM = {
    "double_well": ["system.name=double_well", "simulation.steps=200"],
    "lorenz": ["simulation.grid_range=[-30,50]", "simulation.steps=200"],
    "quadratic": _QUADRATIC3 + ["system.params.q_0_1=0.5",
                                "simulation.eps=[0.05,0.1]",
                                "simulation.steps=200"],
    "quadratic4": _QUADRATIC3 + ["system.params.q_3_3=-1",
                                 "simulation.grid_bins=5",
                                 "simulation.steps=200"],
}
GRADIENTIZED = ["simulate", "--set", "potential_source=gradientize"]
CONFIG_ERROR = ["classify", "--set", "system.params.gamma=1"]


def _sets(command, sets):
    argv = [command]
    for item in sets:
        argv += ["--set", item]
    return argv


def cases(traj_dir):
    """The fixed list: dicts of key, argv, expected exit code and the
    trajectory directory it exports to."""
    sys.dont_write_bytecode = True  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            for entry in workloads.build(name, seed, traj_dir):
                out.append({"key": f"{name}/{seed}/{entry['label']}",
                            "argv": entry["argv"], "code": 0,
                            "traj_dir": entry.get("traj_dir")})
    for command in DEFAULT_COMMANDS:
        extra = ["--traj-dir", str(traj_dir)] if command == "simulate" else []
        out.append({"key": f"default/{command}", "argv": [command] + extra,
                    "code": 0, "traj_dir": traj_dir if extra else None})
    out.append({"key": "default/simulate-gradientize",
                "argv": GRADIENTIZED + ["--traj-dir", str(traj_dir)],
                "code": 0, "traj_dir": traj_dir})
    for label, sets in CI_GRAHAM.items():
        out.append({"key": f"ci-graham/{label}",
                    "argv": _sets("graham", sets), "code": 0,
                    "traj_dir": None})
    out.append({"key": "config-error/unknown-parameter", "argv": CONFIG_ERROR,
                "code": 2, "traj_dir": None})
    return out


def emit(out_dir):
    """Run the list with the gradiform on sys.path; write each output to
    out_dir and a manifest of [key, exit code, {output: file}]."""
    import gradiform.cli as cli
    out_dir = Path(out_dir)
    traj_dir = out_dir / "traj"
    manifest = []
    for i, case in enumerate(cases(traj_dir)):
        report = out_dir / f"{i:04d}.json"
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(case["argv"] + ["--out", str(report)])
            except (Exception, SystemExit) as exc:  # a crash or a bad argv
                code = repr(exc)
        files = {"report": report.name} if report.exists() else {}
        if case["traj_dir"] is not None:
            for csv in sorted(Path(case["traj_dir"]).glob("*.csv")):
                files[csv.name] = f"{i:04d}.{csv.name}"
                csv.rename(out_dir / files[csv.name])
        manifest.append([case["key"], code, case["code"], files])
    (out_dir / "manifest.json").write_text(json.dumps(
        {"gradiform": cli.__file__, "cases": manifest}))


def give_up(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def run_tree(tree, out_dir):
    out_dir.mkdir()
    src = Path(tree).resolve() / "src"
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--emit", str(out_dir)], cwd=out_dir,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        give_up(f"{tree}: the report list failed\n{proc.stderr}")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if not Path(manifest["gradiform"]).resolve().is_relative_to(src):
        give_up(f"{tree}: ran {manifest['gradiform']}, not {src}")
    return manifest["cases"]


def without_timings(text):
    """The report text with its top-level timings object emptied."""
    timings = json.dumps(json.loads(text)["timings"], sort_keys=True)
    old = '"timings": ' + timings
    if text.count(old) != 1:
        raise ValueError("cannot find the timings text")
    return text.replace(old, '"timings": {}')


def first_difference(a, b, path=""):
    """The path of the first value where a and b differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                return sub
            found = first_difference(a[key], b[key], sub)
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found is not None:
                return found
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if json.dumps(a) == json.dumps(b) else path


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def float_pairs(a, b, path=""):
    """(path, x, y) for every pair of numbers at the same place in a and
    b, where their structure agrees."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) & set(b)):
            yield from float_pairs(a[key], b[key],
                                   f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from float_pairs(x, y, f"{path}[{i}]")
    elif _number(a) and _number(b):
        yield path, a, b


def largest_relative(pairs):
    """The largest |x - y| / max(|x|, |y|) over the pairs, and its path."""
    worst, where = 0.0, None
    for path, x, y in pairs:
        scale = max(abs(x), abs(y))
        rel = abs(x - y) / scale if scale else 0.0
        if rel > worst or where is None:
            worst, where = rel, path
    return worst, where


def explain_report(text_a, text_b):
    a, b = json.loads(text_a), json.loads(text_b)
    a["timings"] = b["timings"] = {}
    path = first_difference(a, b)
    if path is None:
        return "same values, different text"
    top = path.split(".")[0].split("[")[0]
    rel, where = largest_relative(float_pairs(a.get(top), b.get(top), top))
    return (f"first difference at {path}; largest relative difference "
            f"under {top}: {rel:.3g} at {where}")


def explain_csv(text_a, text_b):
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    first = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b))
                  if x != y), min(len(lines_a), len(lines_b)))
    pairs = []
    for i, (x, y) in enumerate(zip(lines_a[1:], lines_b[1:]), start=2):
        cells_a, cells_b = x.split(","), y.split(",")
        if len(cells_a) == len(cells_b):
            pairs += [(f"line {i}", float(p), float(q))
                      for p, q in zip(cells_a, cells_b)]
    rel, where = largest_relative(pairs)
    return (f"first difference at line {first + 1} ({len(lines_a)} against "
            f"{len(lines_b)} lines); largest relative difference of its "
            f"cells: {rel:.3g} at {where}")


def compare(against):
    with tempfile.TemporaryDirectory() as tmp:
        dir_a, dir_b = Path(tmp) / "tree", Path(tmp) / "against"
        cases_a, cases_b = run_tree(ROOT, dir_a), run_tree(against, dir_b)
        if [c[0] for c in cases_a] != [c[0] for c in cases_b]:
            give_up("the two trees ran different lists")
        counts = {"reports": 0, "csv": 0, "exit codes": 0}
        bad = []
        for (key, code_a, expect, files_a), (_, code_b, _, files_b) in zip(
                cases_a, cases_b):
            counts["exit codes"] += not files_a
            if code_a != code_b or code_a != expect:
                bad.append(f"{key}: exit code {code_a} against {code_b} "
                           f"(expected {expect})")
                continue
            if sorted(files_a) != sorted(files_b):
                bad.append(f"{key}: outputs {sorted(files_a)} against "
                           f"{sorted(files_b)}")
                continue
            for name in sorted(files_a):
                # bytes, decoded without newline translation
                text_a = (dir_a / files_a[name]).read_bytes().decode()
                text_b = (dir_b / files_b[name]).read_bytes().decode()
                report = name == "report"
                counts["reports" if report else "csv"] += 1
                if report:
                    text_a, text_b = (without_timings(text_a),
                                      without_timings(text_b))
                digest_a, digest_b = (hashlib.sha256(t.encode()).hexdigest()
                                      for t in (text_a, text_b))
                if digest_a != digest_b:
                    why = (explain_report if report else explain_csv)(
                        text_a, text_b)
                    bad.append(f"{key} {name}: {why}")
    total = sum(counts.values())
    detail = ", ".join(f"{n} {kind}" for kind, n in counts.items())
    for line in bad:
        print(line)
    if bad:
        print(f"{len(bad)} of {total} outputs differ ({detail})")
        return 1
    print(f"all {total} outputs identical ({detail})")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", help="the source tree to compare with")
    ap.add_argument("--emit", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.emit:
        emit(args.emit)
        return 0
    if args.against is None:
        ap.error("--against is required")
    return compare(args.against)


if __name__ == "__main__":
    sys.exit(main())

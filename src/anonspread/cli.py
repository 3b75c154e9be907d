"""Command-line front end.

Subcommands: `spread` (one trace to stdout/CSV), `estimate` (one estimator
on a trace file), `experiment` (config file -> summary CSV), `sweep`, and
`predict` (closed forms as CSV rows).  Config files are flat `key = value`
text; any flag overrides the file.  Exit codes: 0 ok, 1 config error, 2
comparison-gate failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import analysis
from .harness import (
    ADVERSARIES,
    CLOSED_FORMS,
    NETWORKS,
    OPTIONS,
    PROTOCOLS,
    ExperimentConfig,
    Registry,
    check_applies,
    compare_with_theory,
    default_output_dir,
    run_experiment,
    shared_network,
    sweep as run_sweep,
    with_options,
    write_summary_csv,
)
from .spread import TRACE_COLUMNS, InfectionSnapshot


def parse_config_file(path: str) -> dict:
    out = {}
    with open(path, "rt", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = s.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value.strip()
    return out


def _parse_degree_table(text: str) -> dict:
    # "3:0.5,4:0.5"
    table = {}
    for part in text.split(","):
        k, _, v = part.partition(":")
        table[int(k)] = float(v)
    return table


def _int_or_float(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)  # also "inf"


# a field's annotation, less any "| None", -> its text parser.  The config
# modules postpone annotations, so each is its source text.  d0's
# "float | int" keeps 3 an int and reads inf as a float.
_PARSE = {"int": int, "float": float, "str": str, "dict": _parse_degree_table, "float | int": _int_or_float}

# key -> parser, for every option with a text form; `compare` is the CLI's own
_PARSERS = Registry("option", {
    name: _PARSE[f.type.removesuffix(" | None")]
    for name, (_, f) in OPTIONS.items() if f.type.removesuffix(" | None") in _PARSE})
CONFIG_KEYS = {*_PARSERS, "compare"}


def config_from_options(opts: dict) -> ExperimentConfig:
    cfg = with_options(ExperimentConfig(), {k: _PARSERS[k](v) for k, v in opts.items() if k != "compare"})
    return replace(cfg, output=_output_path(cfg.output), trial_output=_output_path(cfg.trial_output))


def _output_path(path):
    """Relative output paths land in the default output directory."""
    if path and not os.path.isabs(path):
        return os.path.join(default_output_dir(), path)
    return path


def _collect_options(args) -> dict:
    opts = {}
    if getattr(args, "config", None):
        opts.update(parse_config_file(args.config))
    for key in CONFIG_KEYS:
        v = getattr(args, key, None)
        if v is not None:
            opts[key] = v
    return opts


def _add_common(sp):
    sp.add_argument("--config", help="flat key=value config file")
    for key in sorted(CONFIG_KEYS - {"compare"}):
        sp.add_argument(f"--{key}", dest=key)


def cmd_spread(args) -> int:
    cfg = config_from_options(_collect_options(args))
    check_applies(cfg, "spread")
    rng = np.random.default_rng(cfg.seed)
    net, source = NETWORKS[cfg.network](cfg, rng, shared_network(cfg))
    snap = PROTOCOLS[cfg.protocol.kind](net, source, cfg.protocol, rng)
    if cfg.output:
        with open(cfg.output, "wt", encoding="utf-8") as fh:
            snap.to_csv(fh)
    else:
        snap.to_csv(sys.stdout)
    return 0


def load_trace(path: str, net, T: int | None = None) -> InfectionSnapshot:
    """Rebuild a snapshot from a trace CSV plus the network it ran on.

    T is the snapshot time; without it (None), the latest infection time is
    taken, which falls one short of T when the last epoch kept the token.  A
    trace without the columns that `spread` writes or without rows, a row (1
    is the first below the header) with a cell not an integer or a parent not
    listed above it, no virtual source marked by T, a T before the latest
    infection time and a node that a finite network lacks raise ValueError."""
    def cell(column):  # row n's integer in `column`
        try:
            return int(row[column])
        except (TypeError, ValueError):  # a short row holds None
            raise ValueError(f"trace {path} row {n}: column {column} holds {row[column]!r}, not an integer") from None

    time, parent, direction, level = {}, {}, {}, {}
    vs_marks = []
    with open(path, "rt", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in TRACE_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"trace {path} lacks the column(s) {', '.join(missing)}")
        for n, row in enumerate(reader, 1):
            v = cell("node")
            p = cell("parent") if row["parent"] != "" else None
            if p is not None and p not in time:  # the rows are in infection order
                raise ValueError(f"trace {path} row {n}: the parent {p} of node {v} is not listed above it")
            time[v], parent[v] = cell("infection_time"), p
            if row["direction"]:
                direction[v] = row["direction"]
            if row["level"]:
                level[v] = cell("level")
            if row["is_virtual_source_at_t"]:
                vs_marks.append((cell("is_virtual_source_at_t"), v))
    if not time:
        raise ValueError(f"trace {path} has no rows")
    missing = [v for v in time if v not in net.adj] if net.is_finite else []
    if missing:
        raise ValueError(f"trace node {missing[0]} is not a node of the {net.kind} network of {net.n_nodes} nodes")
    vs_marks.sort()
    latest = max(time.values())
    T = latest if T is None else T
    if T < latest:
        raise ValueError(f"T={T} lies before the trace's latest infection time {latest}")
    source = min(time, key=time.get)
    if not vs_marks or vs_marks[0][0] > T:
        raise ValueError(f"trace {path} marks no virtual source at or before T={T}")
    return InfectionSnapshot(
        protocol="trace",
        T=T,
        source=source,
        time=time,
        parent=parent,
        vs_events=[(t, v, i) for i, (t, v) in enumerate(vs_marks)],
        direction=direction,
        level=level,
    )


def cmd_estimate(args) -> int:
    opts = _collect_options(args)
    cfg = config_from_options(opts)
    # the network gets a stream of its own, so that a galton-watson tree is
    # the one `spread` grew with the same seed
    net, _ = NETWORKS[cfg.network](cfg, np.random.default_rng(cfg.seed), shared_network(cfg))
    snap = load_trace(args.trace, net, cfg.protocol.horizon if "T" in opts else None)
    check_applies(with_options(cfg, {"T": snap.T}))  # without --T, at the trace's T
    est = ADVERSARIES[cfg.adversary](cfg, net, snap, np.random.default_rng(cfg.seed))
    print(f"estimator,{est.kind}")
    print(f"v_hat,{est.v_hat}")
    print(f"candidates,{est.tie_count}")
    return 0


def _report(args, run) -> int:
    """Run `experiment` or `sweep`, compare with the closed form if asked,
    and print and write the summary."""
    opts = _collect_options(args)
    cfg = config_from_options(opts)
    compare = opts.get("compare")
    if compare:
        CLOSED_FORMS[compare]  # an unknown name raises here, before any trial runs
    summary = run(cfg)
    if compare:
        compare_with_theory(summary, compare)
    write_summary_csv(summary, sys.stdout)
    if cfg.output:
        with open(cfg.output, "wt", encoding="utf-8") as fh:
            write_summary_csv(summary, fh)
    return 2 if compare and any(r.flag for r in summary.rows) else 0


def cmd_experiment(args) -> int:
    return _report(args, run_experiment)


def cmd_sweep(args) -> int:
    parse = _PARSERS[args.parameter]
    # a degree table is itself comma-separated, so tables are separated by ';'
    sep = ";" if parse is _parse_degree_table else ","
    values = [parse(text) for text in args.values.split(sep)]
    return _report(args, lambda cfg: run_sweep(cfg, args.parameter, values))


def cmd_predict(args) -> int:
    """Print the named quantity at the config that the common flags give:
    a CLOSED_FORMS entry, which `--compare` reads too, or one of the sizes
    and the exponent, which predict no detection rate."""
    opts = _collect_options(args)
    cfg = config_from_options(opts)
    q, d, T = args.quantity, cfg.d, cfg.protocol.horizon
    if q == "n_regular":  # at odd T, both branches: the last epoch kept the token or passed it
        names = {"even": q} if T % 2 == 0 else {b: f"{q}_{b}" for b in ("kept", "passed")}
        rows = [(name, analysis.n_regular(d, T, b)) for b, name in names.items()]
    elif q == "grid":
        pred = analysis.grid_predictions(T)
        rows = [("grid_n_lower", pred.n_lower_bound)]
        if pred.n_even_exact is not None:
            rows.append(("grid_n_exact", pred.n_even_exact))
    elif q == "detection_exponent":
        if cfg.degree_table is None:
            raise ValueError("detection_exponent needs degree_table")
        res = analysis.detection_exponent(cfg.degree_table)
        rows = [("exponent_log2", res.exponent_log2), ("gap_log2", res.gap_log2)]
        rows += [(f"r_star_{i}", r) for i, r in enumerate(res.r_star)]
    else:
        rows = [(q, CLOSED_FORMS[q](cfg)[0])]
    params = ";".join(f"{k}={v}" for k, v in sorted(opts.items()))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["quantity", "parameters", "value"])
    writer.writerows((name, params, f"{value:.12g}") for name, value in rows)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="anonspread",
                                     description="spreading-protocol anonymity lab")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spread", help="run one spread and emit its trace")
    _add_common(sp)
    sp.set_defaults(fn=cmd_spread)

    sp = sub.add_parser("estimate", help="run one estimator on a trace file")
    _add_common(sp)
    sp.add_argument("trace", help="trace CSV from the spread subcommand")
    sp.set_defaults(fn=cmd_estimate)

    sp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    _add_common(sp)
    sp.add_argument("--compare", help="closed form to gate against")
    sp.set_defaults(fn=cmd_experiment)

    sp = sub.add_parser("sweep", help="repeat an experiment over parameter values")
    _add_common(sp)
    sp.add_argument("--compare")
    sp.add_argument("parameter", help="any config key but compare")
    sp.add_argument("values", help="comma-separated values (degree tables: ';'-separated)")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("predict", help="closed-form predictions as CSV")
    _add_common(sp)
    sp.add_argument("quantity", help="a --compare quantity, n_regular, grid or detection_exponent")
    sp.set_defaults(fn=cmd_predict)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

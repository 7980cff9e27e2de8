"""Command-line interface: capacity runs, sweeps, critical strengths,
quenched averages, oracle validation and table regeneration.

All subcommands emit flat records in JSON (one object per record) or CSV with
a fixed column order, carrying every input needed to reproduce the run.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json

import click
import numpy as np

from . import __version__
from .analysis import (AnalysisError, QuenchConfig, critical_strengths,
                       find_pc, mean_capacity, quenched_capacity, sweep)
from .capacity import COLLAPSE_THRESHOLD, LayoutError, PartyLayout
from .channels import ChannelError, ChannelKind, ChannelSpec, parse_channel
from .optimizer import OptimizerConfig, OptimizerConfigError, OptimizerError
from .oracles import run_all_oracles
from .qmath import QmathError
from .states import (GGHZ, StateError, WUniform, build, parse_state,
                     state_qubits)

CSV_FIELDS = ["state", "state_params", "n_senders", "receivers", "split",
              "channel", "alpha", "p", "epsilon", "draw_policy", "optimized",
              "capacity_bits", "classical_bound", "dense_codeable",
              "std_error", "realizations", "master_seed", "opt_seed",
              "tool_version"]

USAGE_ERRORS = (StateError, ChannelError, LayoutError, AnalysisError,
                OptimizerConfigError)
NUMERIC_ERRORS = (OptimizerError, QmathError)


def fmt(value) -> str:
    """Render a record value: floats at 12 significant digits."""
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    return str(value)


def make_record(state_spec: str, layout: PartyLayout, spec: ChannelSpec | None,
                *, capacity_bits=None, dense_codeable=None, std_error=None,
                realizations=None, master_seed=None, opt_seed=None,
                optimized=None, extra: dict | None = None) -> dict:
    name, _, params = state_spec.partition(":")
    rec = {
        "state": name,
        "state_params": params,
        "n_senders": layout.n_senders,
        "receivers": layout.n_receivers,
        "split": layout.split if layout.split is not None else "",
        "channel": spec.kind.value if spec else "",
        "alpha": spec.alpha if spec else "",
        "p": spec.p if spec else "",
        "epsilon": spec.epsilon if spec else "",
        "draw_policy": spec.draw_policy.value if spec else "",
        "optimized": optimized if optimized is not None else "",
        "capacity_bits": capacity_bits if capacity_bits is not None else "",
        "classical_bound": float(layout.n_senders),
        "dense_codeable": dense_codeable if dense_codeable is not None else "",
        "std_error": std_error if std_error is not None else "",
        "realizations": realizations if realizations is not None else "",
        "master_seed": master_seed if master_seed is not None else "",
        "opt_seed": opt_seed if opt_seed is not None else "",
        "tool_version": __version__,
    }
    if extra:
        rec.update(extra)
    return rec


def emit(records: list[dict], fmt_name: str, out: str | None) -> None:
    if fmt_name == "json":
        text = "\n".join(json.dumps(
            {k: (float(fmt(v)) if isinstance(v, (float, np.floating)) else v)
             for k, v in r.items()}) for r in records)
    else:
        fields = list(records[0].keys()) if records else CSV_FIELDS
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for r in records:
            writer.writerow({k: fmt(v) for k, v in r.items()})
        text = buf.getvalue().rstrip("\n")
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


# flags whose parameter name differs from the flag name
_CONFIG_ALIASES = {"state": "state_spec", "channel": "channel_spec",
                   "format": "fmt_name"}


def _read_config(path: str) -> dict:
    kv = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            if not value:
                raise click.UsageError(f"malformed config line {line!r}")
            key = key.strip().replace("-", "_")
            kv[_CONFIG_ALIASES.get(key, key)] = value.strip()
    return kv


@click.group()
@click.version_option(__version__)
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              help="Key=value file supplying defaults for any flag.")
@click.pass_context
def main(ctx, config):
    """Dense-coding capacity toolkit for noisy few-qubit resource states."""
    if config:
        kv = _read_config(config)
        ctx.default_map = {cmd: dict(kv) for cmd in
                           ("capacity", "sweep", "critical", "quench",
                            "validate", "table")}


def problem_options(f):
    f = click.option("--state", "state_spec", required=True,
                     help="State specifier, e.g. gghz:n=3,x=0.70711")(f)
    f = click.option("--senders", type=int, required=True)(f)
    f = click.option("--receivers", type=int, default=1, show_default=True)(f)
    f = click.option("--split", type=int, default=None,
                     help="Senders routed to receiver 1 (two-receiver runs).")(f)
    f = click.option("--channel", "channel_spec", default=None,
                     help="Channel specifier, e.g. dephasing:alpha=0.5,p=0.3")(f)
    return f


def optimizer_options(f):
    f = click.option("--opt-evals", type=int, default=20000, show_default=True)(f)
    f = click.option("--opt-seed", type=int, default=0, show_default=True)(f)
    f = click.option("--opt-restarts", type=int, default=3, show_default=True)(f)
    f = click.option("--no-optimize", is_flag=True,
                     help="Use the identity encoding instead of optimizing.")(f)
    return f


def output_options(f):
    f = click.option("--format", "fmt_name", type=click.Choice(["json", "csv"]),
                     default="json", show_default=True)(f)
    f = click.option("--out", type=click.Path(dir_okay=False), default=None)(f)
    return f


def build_problem(state_spec, senders, receivers, split, channel_spec):
    state = parse_state(state_spec)
    layout = PartyLayout(senders, receivers, split)
    if state_qubits(state) != layout.n_qubits:
        raise LayoutError(f"state has {state_qubits(state)} qubits but the "
                          f"layout needs {layout.n_qubits}")
    spec = parse_channel(channel_spec) if channel_spec else None
    return state, build(state), layout, spec


def opt_config(opt_evals, opt_seed, opt_restarts) -> OptimizerConfig:
    return OptimizerConfig(max_evaluations=opt_evals, seed=opt_seed,
                           restarts=opt_restarts)


def quench_config(spec, realizations, seed, optimize=False) -> QuenchConfig | None:
    """The quench of a random channel; None without one, so that a
    deterministic run checks no realization count or master seed."""
    if spec is None or not spec.is_random:
        return None
    return QuenchConfig(realizations=realizations, master_seed=seed,
                        optimize_per_realization=optimize)


def run_guard(f):
    """Map domain errors to exit 2 (usage) and numeric ones to exit 1."""
    import functools

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except USAGE_ERRORS as exc:
            raise click.UsageError(str(exc)) from exc
        except NUMERIC_ERRORS as exc:
            raise click.ClickException(f"numeric failure: {exc}") from exc
    return wrapper


@main.command()
@problem_options
@optimizer_options
@output_options
@click.option("--realizations", type=click.IntRange(min=1), default=4000,
              help="Quenched realizations when the channel is random.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Master seed for random-channel realizations.")
@run_guard
def capacity(state_spec, senders, receivers, split, channel_spec,
             opt_evals, opt_seed, opt_restarts, no_optimize, fmt_name, out,
             realizations, seed):
    """Evaluate one capacity (or two-receiver bound)."""
    _, rho, layout, spec = build_problem(state_spec, senders, receivers,
                                         split, channel_spec)
    opt = opt_config(opt_evals, opt_seed, opt_restarts)
    qc = quench_config(spec, realizations, seed)
    res = mean_capacity(rho, layout, spec, opt, not no_optimize, qc)
    rec = make_record(state_spec, layout, spec,
                      capacity_bits=res.mean_capacity_bits,
                      dense_codeable=res.mean_capacity_bits - layout.n_senders
                      > COLLAPSE_THRESHOLD,
                      std_error=res.std_error_bits if qc else None,
                      realizations=res.realizations_used if qc else None,
                      master_seed=seed if qc else None,
                      opt_seed=opt_seed, optimized=not no_optimize and qc is None)
    emit([rec], fmt_name, out)


@main.command("sweep")
@problem_options
@optimizer_options
@output_options
@click.option("--axis", type=click.Choice(["p", "alpha", "state_param"]),
              required=True)
@click.option("--lo", type=float, required=True)
@click.option("--hi", type=float, required=True)
@click.option("--steps", type=int, required=True)
@click.option("--param", default=None, help="State field for state_param sweeps.")
@click.option("--realizations", type=click.IntRange(min=1), default=4000)
@click.option("--seed", type=int, default=0, show_default=True)
@run_guard
def sweep_cmd(state_spec, senders, receivers, split, channel_spec,
              opt_evals, opt_seed, opt_restarts, no_optimize, fmt_name, out,
              axis, lo, hi, steps, param, realizations, seed):
    """Capacity along a grid of p, alpha or a state parameter."""
    state, rho, layout, spec = build_problem(state_spec, senders, receivers,
                                             split, channel_spec)
    opt = opt_config(opt_evals, opt_seed, opt_restarts)
    quench = quench_config(spec, realizations, seed, not no_optimize)
    rows = sweep(axis, (lo, hi, steps), state=state, rho=rho, layout=layout,
                 spec=spec, opt=opt, optimize=not no_optimize, quench=quench,
                 param=param)
    records = []
    for row in rows:
        row_spec = spec
        if axis in ("p", "alpha"):
            row_spec = dataclasses.replace(spec, **{axis: row["value"]})
        records.append(make_record(
            state_spec, layout, row_spec, capacity_bits=row["capacity_bits"],
            dense_codeable=row["dense_codeable"], std_error=row["std_error"],
            realizations=(quench.realizations if quench else None),
            master_seed=(seed if quench else None), opt_seed=opt_seed,
            optimized=not no_optimize,
            extra={"axis": axis, "axis_value": row["value"]}))
    emit(records, fmt_name, out)


@main.command()
@problem_options
@optimizer_options
@output_options
@click.option("--scan-step", type=float, default=1e-3, show_default=True)
@click.option("--refine", type=float, default=1e-4, show_default=True)
@click.option("--threshold", type=float, default=COLLAPSE_THRESHOLD,
              show_default=True)
@click.option("--realizations", type=click.IntRange(min=1), default=4000)
@click.option("--seed", type=int, default=0, show_default=True)
@run_guard
def critical(state_spec, senders, receivers, split, channel_spec,
             opt_evals, opt_seed, opt_restarts, no_optimize, fmt_name, out,
             scan_step, refine, threshold, realizations, seed):
    """Critical strengths p_c, p_r, p_a for one problem."""
    if channel_spec is None:
        raise click.UsageError("critical requires --channel")
    _, rho, layout, spec = build_problem(state_spec, senders, receivers,
                                         split, channel_spec)
    opt = opt_config(opt_evals, opt_seed, opt_restarts)
    quench = quench_config(spec, realizations, seed, not no_optimize)
    cs = critical_strengths(rho, layout, spec, opt, scan_step, refine,
                            threshold, optimize=not no_optimize, quench=quench)
    rec = make_record(state_spec, layout, spec, opt_seed=opt_seed,
                      optimized=not no_optimize, master_seed=seed if quench else None,
                      realizations=quench.realizations if quench else None,
                      extra={"p_c": "" if cs.p_c is None else cs.p_c,
                             "p_r": "" if cs.p_r is None else cs.p_r,
                             "p_a": "" if cs.p_a is None else cs.p_a,
                             "bracket_resolution": cs.bracket_resolution})
    emit([rec], fmt_name, out)


@main.command()
@problem_options
@optimizer_options
@output_options
@click.option("--realizations", type=int, default=4000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--optimize-per-realization", is_flag=True)
@run_guard
def quench(state_spec, senders, receivers, split, channel_spec,
           opt_evals, opt_seed, opt_restarts, no_optimize, fmt_name, out,
           realizations, seed, optimize_per_realization):
    """Quenched mean capacity over random channel realizations."""
    if channel_spec is None:
        raise click.UsageError("quench requires --channel")
    if no_optimize and optimize_per_realization:
        raise click.UsageError("--no-optimize and --optimize-per-realization "
                               "exclude each other")
    _, rho, layout, spec = build_problem(state_spec, senders, receivers,
                                         split, channel_spec)
    opt = opt_config(opt_evals, opt_seed, opt_restarts)
    qc = quench_config(spec, realizations, seed, optimize_per_realization)
    res = quenched_capacity(rho, layout, spec, qc, opt)
    rec = make_record(state_spec, layout, spec,
                      capacity_bits=res.mean_capacity_bits,
                      dense_codeable=res.mean_capacity_bits - layout.n_senders
                      > COLLAPSE_THRESHOLD,
                      std_error=res.std_error_bits,
                      realizations=res.realizations_used, master_seed=seed,
                      opt_seed=opt_seed, optimized=optimize_per_realization)
    emit([rec], fmt_name, out)


@main.command()
@click.option("--format", "fmt_name", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@click.option("--fast/--full", default=True, show_default=True)
@run_guard
def validate(fmt_name, fast):
    """Run every closed-form cross-check; nonzero exit on any failure."""
    reports = run_all_oracles(fast=fast)
    if fmt_name == "json":
        click.echo(json.dumps([dataclasses.asdict(r) for r in reports]))
    else:
        width = max(len(r.name) for r in reports)
        for r in reports:
            click.echo(f"{r.name:<{width}}  numeric={fmt(r.numeric_value):<18} "
                       f"closed={fmt(r.closed_form_value):<18} "
                       f"abs_err={r.abs_error:.3e}  "
                       f"{'PASS' if r.passed else 'FAIL'}")
    if not all(r.passed for r in reports):
        raise click.ClickException("oracle validation failed")


# Reference critical strengths used by the `table` command's comparison
# column.  Layout keys are (state family, senders, receivers).
TABLE_I_ALPHAS = [0.0, 0.3, 0.5, 0.7, 0.9]
TABLE_I = {
    "p_c": {("ghz", 2, 1): [0.48, 0.41, 0.36, 0.33, 0.29],
            ("ghz", 3, 1): [0.42, 0.35, 0.31, 0.28, 0.25],
            ("w", 2, 1): [0.13, 0.10, 0.09, 0.08, 0.07],
            ("w", 3, 1): [0.07, 0.06, 0.05, 0.05, 0.04]},
    "p_r": {("ghz", 2, 1): [None, 0.46, 0.41, 0.37, 0.33],
            ("ghz", 3, 1): [None, None, 0.47, 0.42, 0.38]},
    "p_a": {("ghz", 2, 1): [None, 0.48, 0.44, 0.42, 0.40],
            ("ghz", 3, 1): [None, None, 0.47, 0.42, 0.40],
            ("w", 2, 2): [None, None, 0.45, 0.41, 0.39]},
}
TABLE_II = {
    ("ghz", 2, 1): [0.09, 0.07, 0.05, 0.04, 0.03],
    ("ghz", 3, 1): [0.06, 0.03, 0.03, 0.02, 0.02],
    ("ghz", 2, 2): [0.75, 0.58, 0.45, 0.32, 0.25],
    ("w", 2, 1): [0.08, 0.05, 0.04, 0.03, 0.02],
    ("w", 3, 1): [0.05, 0.03, 0.02, 0.02, 0.02],
    ("w", 2, 2): [0.31, 0.26, 0.21, 0.16, 0.10],
}
TABLE_III_ALPHAS = [0.3, 0.5, 0.9]
TABLE_III_EPSILONS = [0.5, 0.7, 1.0]
TABLE_III = {
    ("ghz", 2, 1): [[0.09, 0.11, 0.14], [0.06, 0.08, 0.10], [0.04, 0.05, 0.07]],
    ("ghz", 3, 1): [[0.04, 0.05, 0.06], [0.03, 0.04, 0.05], [0.02, 0.03, 0.04]],
    ("w", 2, 1): [[0.08, 0.09, 0.12], [0.05, 0.06, 0.09], [0.03, 0.04, 0.07]],
    ("w", 3, 1): [[0.03, 0.04, 0.05], [0.03, 0.03, 0.04], [0.02, 0.02, 0.01]],
}


def _table_problem(family: str, n_senders: int, n_receivers: int):
    n = n_senders + n_receivers
    if family == "ghz":
        state = GGHZ(n, 1 / np.sqrt(2))
    else:
        state = WUniform(n)
    split = 1 if n_receivers == 2 else None
    return build(state), PartyLayout(n_senders, n_receivers, split)


def _table_rows_deterministic(which: str, kind: ChannelKind, scan_step, refine,
                              opt: OptimizerConfig) -> list[dict]:
    rows = []
    quantities = TABLE_I if which == "I" else {"p_c": TABLE_II}
    # one critical_strengths run serves p_c, p_r and p_a of a problem
    cs_cache: dict[tuple, object] = {}
    for quantity, entries in quantities.items():
        for (family, ns, nr), refs in entries.items():
            rho, layout = _table_problem(family, ns, nr)
            for alpha, ref in zip(TABLE_I_ALPHAS, refs):
                key = (family, ns, nr, alpha)
                if key not in cs_cache:
                    cs_cache[key] = critical_strengths(
                        rho, layout, ChannelSpec(kind, alpha, 0.0), opt,
                        scan_step, refine, optimize=False)
                value = getattr(cs_cache[key], quantity)
                ok = ((value is None and ref is None) or
                      (value is not None and ref is not None and
                       abs(value - ref) <= 0.01))
                rows.append({"table": which, "quantity": quantity,
                             "state": family, "n_senders": ns,
                             "receivers": nr, "alpha": alpha,
                             "epsilon": "",
                             "computed": "" if value is None else value,
                             "reference": "" if ref is None else ref,
                             "pass": ok})
    return rows


def _table_rows_quenched(realizations, scan_step, refine, seed) -> list[dict]:
    rows = []
    opt = OptimizerConfig()
    for (family, ns, nr), grid in TABLE_III.items():
        rho, layout = _table_problem(family, ns, nr)
        for alpha, refs in zip(TABLE_III_ALPHAS, grid):
            for eps, ref in zip(TABLE_III_EPSILONS, refs):
                spec = ChannelSpec(ChannelKind.DEPOLARIZING, alpha, 0.0, eps)
                value = find_pc(rho, layout, spec, opt, scan_step, refine, optimize=False,
                                quench=quench_config(spec, realizations, seed))
                ok = value is not None and abs(value - ref) <= 0.02
                rows.append({"table": "III", "quantity": "p_c",
                             "state": family, "n_senders": ns,
                             "receivers": nr, "alpha": alpha, "epsilon": eps,
                             "computed": "" if value is None else value,
                             "reference": ref, "pass": ok})
    return rows


@main.command()
@click.option("--which", type=click.Choice(["I", "II", "III"]), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--scan-step", type=float, default=None,
              help="Scan step (default 1e-3 deterministic, 5e-3 quenched).")
@click.option("--refine", type=float, default=1e-4, show_default=True)
@click.option("--realizations", type=int, default=4000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@run_guard
def table(which, out, scan_step, refine, realizations, seed):
    """Recompute one reference table and compare cell by cell."""
    opt = OptimizerConfig()
    if scan_step is None:
        scan_step = 5e-3 if which == "III" else 1e-3
    if which == "I":
        rows = _table_rows_deterministic("I", ChannelKind.DEPHASING, scan_step,
                                         refine, opt)
    elif which == "II":
        rows = _table_rows_deterministic("II", ChannelKind.DEPOLARIZING,
                                         scan_step, refine, opt)
    else:
        rows = _table_rows_quenched(realizations, scan_step, refine, seed)
    emit(rows, "csv", out)
    n_fail = sum(1 for r in rows if not r["pass"])
    click.echo(f"# {len(rows) - n_fail}/{len(rows)} cells within tolerance",
               err=True)


if __name__ == "__main__":
    main()

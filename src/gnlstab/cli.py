"""Command-line surface: solve -> spectrum -> verify -> scan -> dns.

Every subcommand writes its artifacts into --out and prints a short
summary.  Exit codes: 0 success, 1 operational error (bad input, failed
convergence, I/O), 2 scientific assertion failure (proposition or
hypothesis checks, broken cross-checks, convergence certificate).
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import serialize
from .errors import (
    GnlstabError,
    NumericalConsistencyError,
    WaveAcceptanceError,
)
from .evolve import EvolutionConfig, evolve_and_fit
from .hill import HillOperators, check_propositions, hill_operators

# kept importable here: perfbench/tracer.py wraps these names of gnlstab.cli
from .hill import build_block, build_hill, spectrum  # noqa: F401
from .scan import scan_kappa, verify_hypotheses
from .waves import (
    ProblemParams,
    SolverConfig,
    WaveProfile,
    newton_refine,
    solve_wave,
    tau_for_amplitude,
    wave_at_resolution,
)

#: grid-doubling gate on the 10 lowest composite-operator eigenvalues
CERTIFICATE_TOL = 1e-9

#: maximum relative gap between fitted and predicted growth rates
DNS_GAP_TOL = 0.02


class CommandError(Exception):
    """Operational (code 1) or scientific (code 2) failure with message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _stage(tag: str):
    """Tag errors from one pipeline stage with the module that raised them.

    A LAPACK failure (say, an eigensolve that does not converge) is a
    numerical failure of the stage like a broken cross-check.  :func:`main`
    runs each command under a stage named after it, so an error raised
    outside every inner stage is tagged with the command.
    """
    try:
        yield
    except (WaveAcceptanceError, NumericalConsistencyError, np.linalg.LinAlgError) as exc:
        raise CommandError(2, f"[{tag}] {exc}") from exc
    except GnlstabError as exc:
        raise CommandError(1, f"[{tag}] {exc}") from exc
    except OSError as exc:
        raise CommandError(1, f"[{tag}] {exc}") from exc


# ---------------------------------------------------------------------------
# argument plumbing


def _add_io_flags(sp):
    sp.add_argument("--config", default=None, help="JSON file mirroring flags; explicit flags win")
    sp.add_argument("--out", default=None, help="output directory (default: current directory)")
    sp.add_argument("--format", default=None, choices=("json", "csv", "both"))


def _add_problem_flags(sp):
    sp.add_argument("--alpha", type=float, default=None, help="nonlinearity power (> 0)")
    sp.add_argument("--omega", type=float, default=None, help="frequency (default 1.0)")
    sp.add_argument("--period", type=float, default=None, help="spatial period (default 2*pi)")
    sp.add_argument("--parity", default=None, choices=("even", "odd"))
    sp.add_argument("--modes", type=int, default=None, help="grid size N (default 128)")
    sp.add_argument(
        "--tau",
        default=None,
        help="constraint value, a float or auto:amplitude=A (tau such that the "
        "minimizer before multiplier rescaling has max|u| = A; tau sets only that "
        "amplitude, the solved profile does not depend on it)",
    )
    sp.add_argument("--zero-tolerance", type=float, default=None, dest="zero_tolerance")


def _add_wave_flag(sp):
    sp.add_argument(
        "--wave", default=None, help="stored wave JSON to reuse instead of solving"
    )


def _add_sector_flag(sp):
    sp.add_argument("--sector", default=None, choices=("auto", "full", "odd", "even"))


def _add_scan_flags(sp):
    sp.add_argument("--kappa-min", type=float, default=None, dest="kappa_min")
    sp.add_argument("--kappa-max", type=float, default=None, dest="kappa_max")
    sp.add_argument("--kappa-steps", type=int, default=None, dest="kappa_steps")
    _add_sector_flag(sp)


def _add_dns_flags(sp):
    sp.add_argument("--kappa", type=float, default=None, help="transverse wavenumber")
    sp.add_argument("--scheme", default=None, choices=("explicit_rk4", "splitting_order2"))
    sp.add_argument(
        "--dns-seed", default=None, choices=("leading_eigenvector", "random"), dest="dns_seed"
    )
    sp.add_argument("--final-time", type=float, default=None, dest="final_time")
    sp.add_argument("--time-step", type=float, default=None, dest="time_step")
    sp.add_argument("--rng-seed", type=int, default=None, dest="rng_seed")


#: subcommand -> (help, flag groups); builds the parser and checks --config values
_SUBCOMMANDS = {
    "solve": ("solve for a standing-wave profile", (_add_io_flags, _add_problem_flags)),
    "spectrum": (
        "eigenvalues of the linearized operators L1, L2",
        (_add_io_flags, _add_problem_flags, _add_wave_flag),
    ),
    "verify": (
        "structural spectral checks and hypotheses (H0)-(H4)",
        (_add_io_flags, _add_problem_flags, _add_wave_flag, _add_sector_flag),
    ),
    "scan": (
        "growth rates over a transverse wavenumber grid",
        (_add_io_flags, _add_problem_flags, _add_wave_flag, _add_scan_flags),
    ),
    "dns": (
        "time integration of the linearized flow",
        (_add_io_flags, _add_problem_flags, _add_wave_flag, _add_sector_flag, _add_dns_flags),
    ),
    "pipeline": (
        "all stages for one parameter set, combined report",
        (_add_io_flags, _add_problem_flags, _add_scan_flags, _add_dns_flags),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnlstab",
        description="Periodic standing waves of the focusing generalized NLS "
        "equation and their transverse (in)stability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flag_groups) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for add_flags in flag_groups:
            add_flags(sp)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One :func:`build_parser` per process for :func:`main`: parsing leaves
    the parser as it was, so in-process callers need not rebuild it."""
    return build_parser()


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the --config JSON file (flags win).

    Each value is parsed by the flag it fills, so it meets the same type and
    choices as on the command line.
    """
    if getattr(args, "config", None) is None:
        return
    path = Path(args.config)
    if not path.is_file():
        raise CommandError(1, f"[cli_io] config file not found: {path}")
    try:
        values = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise CommandError(1, f"[cli_io] config file is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise CommandError(1, f"[cli_io] config file is not valid JSON: {exc}")
    if not isinstance(values, dict):
        raise CommandError(1, "[cli_io] config file must contain a JSON object")
    flags = argparse.ArgumentParser(exit_on_error=False)
    for add_flags in _SUBCOMMANDS[args.command][1]:
        add_flags(flags)
    for key, value in values.items():
        attr = str(key).replace("-", "_")
        if attr in ("command", "config") or value is None:
            continue
        if hasattr(args, attr) and getattr(args, attr) is None:
            flag = "--" + attr.replace("_", "-")
            try:
                parsed = flags.parse_args([f"{flag}={value}"])
            except argparse.ArgumentError as exc:
                raise CommandError(1, f"[cli_io] config key {key!r}: {exc}")
            setattr(args, attr, getattr(parsed, attr))


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(".")
    with _stage("cli_io"):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _formats(args) -> set:
    choice = args.format or "both"
    return {"json", "csv"} if choice == "both" else {choice}


def _solver_config(args) -> SolverConfig:
    modes = int(args.modes) if args.modes is not None else 128
    return SolverConfig(mode_count=modes)


def _resolve_problem(args, config: SolverConfig) -> ProblemParams:
    if args.alpha is None:
        raise CommandError(1, "[cli_io] --alpha is required (directly or via --config)")
    alpha = float(args.alpha)
    omega = float(args.omega) if args.omega is not None else 1.0
    period = float(args.period) if args.period is not None else float(2.0 * np.pi)
    parity = args.parity or "even"
    if args.tau is None:
        raise CommandError(
            1, "[cli_io] --tau is required: a positive float or auto:amplitude=A"
        )
    tau_spec = str(args.tau)
    if tau_spec.startswith("auto:"):
        directive = tau_spec[len("auto:") :]
        if not directive.startswith("amplitude="):
            raise CommandError(
                1, f"[cli_io] unknown --tau directive {tau_spec!r}; use auto:amplitude=A"
            )
        try:
            amplitude = float(directive[len("amplitude=") :])
        except ValueError:
            raise CommandError(1, f"[cli_io] bad amplitude in --tau {tau_spec!r}")
        with _stage("wave_solver"):
            tau = tau_for_amplitude(alpha, omega, period, parity, amplitude, config)
    else:
        try:
            tau = float(tau_spec)
        except ValueError:
            raise CommandError(
                1, f"[cli_io] --tau must be a float or auto:amplitude=A, got {tau_spec!r}"
            )
    with _stage("wave_solver"):
        return ProblemParams(alpha=alpha, omega=omega, period=period, tau=tau, parity=parity)


def _obtain_wave(args, config: SolverConfig) -> WaveProfile:
    if getattr(args, "wave", None):
        with _stage("cli_io"):
            record = serialize.load(args.wave)
        if not isinstance(record, WaveProfile):
            raise CommandError(
                1, f"[cli_io] {args.wave} does not contain a wave_profile document"
            )
        return record
    params = _resolve_problem(args, config)
    with _stage("wave_solver"):
        return solve_wave(params, config)


def _write(out: Path, name: str, text: str) -> Path:
    path = out / name
    with _stage("cli_io"):
        serialize.save_csv(text, path)
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    config = _solver_config(args)
    out = _out_dir(args)
    wave = _obtain_wave(args, config)
    path = _write(out, "wave.json", serialize.dumps(wave))
    print(
        f"[wave_solver] {wave.wave_id}: residual {wave.ode_residual_norm:.3e}, "
        f"max|phi| {wave.phi.max_abs:.6g} -> {path}"
    )
    return 0


def _full_spectra(ops: HillOperators, zero_tolerance):
    return [ops.summary(which, zero_tolerance) for which in ("L1", "L2")]


def cmd_spectrum(args) -> int:
    config = _solver_config(args)
    out = _out_dir(args)
    formats = _formats(args)
    wave = _obtain_wave(args, config)
    with _stage("hill_spectra"):
        summaries = _full_spectra(hill_operators(wave), args.zero_tolerance)
    for summary in summaries:
        if "json" in formats:
            _write(out, f"spectrum_{summary.label}.json", serialize.dumps(summary))
        if "csv" in formats:
            _write(out, f"spectrum_{summary.label}.csv", serialize.spectrum_csv(summary))
        print(
            f"[hill_spectra] {summary.label}: n_negative={summary.n_negative} "
            f"kernel_dimension={summary.kernel_dimension} "
            f"(zero tolerance {summary.zero_tolerance:.3e})"
        )
    return 0


def cmd_verify(args) -> int:
    config = _solver_config(args)
    out = _out_dir(args)
    wave = _obtain_wave(args, config)
    with _stage("hill_spectra"):
        ops = hill_operators(wave)
        report = check_propositions(ops, zero_tolerance=args.zero_tolerance)
        _write(out, "propositions.json", serialize.dumps(report))
    with _stage("instability_scanner"):
        hypotheses = verify_hypotheses(
            ops, sector=args.sector or "auto", zero_tolerance=args.zero_tolerance
        )
        _write(out, "hypotheses.json", serialize.dumps(hypotheses))
    for check in report.checks:
        flag = "ok" if check.passed else "FAIL"
        print(f"[hill_spectra] {check.name}: {flag} (expected {check.expected}, got {check.actual})")
    for note in report.notes:
        print(f"[hill_spectra] note: {note}")
    for name in ("h0", "h1", "h2", "h3", "h4"):
        flag = "ok" if getattr(hypotheses, name)["passed"] else "FAIL"
        print(f"[instability_scanner] {name}: {flag}")
    if not (report.passed and hypotheses.overall):
        print("[cli_io] verification FAILED")
        return 2
    print("[cli_io] verification passed")
    return 0


def _scan_range(args, ops: HillOperators, hypotheses=None):
    """kappa grid from the flags; the default end reuses ``hypotheses`` if given."""
    kappa_min = args.kappa_min if args.kappa_min is not None else 0.0
    steps = args.kappa_steps if args.kappa_steps is not None else 60
    if args.kappa_max is not None:
        kappa_max = args.kappa_max
    else:
        # default upper end: just past the uniform-positivity threshold K
        if hypotheses is None:
            with _stage("instability_scanner"):
                hypotheses = verify_hypotheses(ops, sector=ops.sector)
        kappa_max = 1.1 * hypotheses.h1["K"] if hypotheses.h1["K"] > 0 else 1.0
    return float(kappa_min), float(kappa_max), int(steps)


def cmd_scan(args) -> int:
    config = _solver_config(args)
    out = _out_dir(args)
    formats = _formats(args)
    wave = _obtain_wave(args, config)
    with _stage("instability_scanner"):
        ops = hill_operators(wave, args.sector or "auto")
        kappa_min, kappa_max, steps = _scan_range(args, ops)
        result = scan_kappa(ops, kappa_min, kappa_max, steps, sector=ops.sector)
    if "json" in formats:
        _write(out, "scan.json", serialize.dumps(result))
    if "csv" in formats:
        _write(out, "scan.csv", serialize.scan_csv(result))
    peak = result.most_unstable
    print(
        f"[instability_scanner] {result.verdict}; peak growth "
        f"{peak.max_real_part:.6g} at kappa={peak.kappa:.6g}; "
        f"band edges {[round(e, 6) for e in result.band_edges]}"
    )
    return 0


def _dns_summary_payload(gm) -> dict:
    gap = abs(gm.fitted_rate - gm.predicted_rate) / max(abs(gm.predicted_rate), 1e-300)
    return {
        "kappa": gm.kappa,
        "fitted_rate": gm.fitted_rate,
        "fit_residual": gm.fit_residual,
        "scanner_lambda": gm.predicted_rate,
        "relative_gap": gap,
    }


def _evolution_config(args) -> EvolutionConfig:
    return EvolutionConfig(
        time_step=args.time_step,
        final_time=args.final_time,
        scheme=args.scheme or "explicit_rk4",
        seed=args.dns_seed or "leading_eigenvector",
        rng_seed=args.rng_seed if args.rng_seed is not None else 0,
    )


def cmd_dns(args) -> int:
    config = _solver_config(args)
    with _stage("dns_validator"):
        evolution = _evolution_config(args)
    out = _out_dir(args)
    formats = _formats(args)
    wave = _obtain_wave(args, config)
    with _stage("instability_scanner"):
        ops = hill_operators(wave, args.sector or "auto")
    kappa = args.kappa
    if kappa is None:
        kappa_min, kappa_max, steps = _scan_range(args, ops)
        with _stage("instability_scanner"):
            result = scan_kappa(ops, kappa_min, kappa_max, steps, sector=ops.sector)
        kappa = result.most_unstable.kappa
        print(f"[instability_scanner] most unstable kappa on default grid: {kappa:.6g}")
    with _stage("dns_validator"):
        gm = evolve_and_fit(ops, float(kappa), evolution, sector=ops.sector)
    if "json" in formats:
        _write(out, "growth.json", serialize.dumps(gm))
        _write(out, "dns_summary.json", serialize.envelope("pipeline_report", _dns_summary_payload(gm)))
    if "csv" in formats:
        _write(out, "growth.csv", serialize.growth_csv(gm))
    summary = _dns_summary_payload(gm)
    print(
        f"[dns_validator] kappa={gm.kappa:g}: fitted rate {gm.fitted_rate:.6g} vs "
        f"scanner {gm.predicted_rate:.6g} (relative gap {summary['relative_gap']:.3g}, "
        f"fit residual {gm.fit_residual:.3g})"
    )
    return 0


def _certificate(ops: HillOperators, config: SolverConfig) -> dict:
    """Grid-doubling deltas of the 10 lowest composite-operator eigenvalues.

    The coarse spectrum is the store's, already solved; the wave refined on
    the doubled grid gets one store on the same sector."""
    wave = ops.wave
    fine = newton_refine(wave_at_resolution(wave, 2 * wave.phi.grid.size), config)
    lows = [o.lcal_eigenvalues()[:10] for o in (ops, hill_operators(fine, ops.sector))]
    deltas = np.abs(lows[0] - lows[1])
    return {
        "coarse_size": wave.phi.grid.size,
        "fine_size": 2 * wave.phi.grid.size,
        "lowest_eigenvalues": [float(x) for x in lows[0]],
        "doubling_deltas": [float(x) for x in deltas],
        "max_delta": float(np.max(deltas)),
        "passed": bool(np.max(deltas) <= CERTIFICATE_TOL),
        "tolerance": CERTIFICATE_TOL,
    }


def _constant_regime(params: ProblemParams) -> str:
    """The line naming the constant-state regime of an even wave.

    At the constant state phi^alpha = omega, L1 = -d_xx - alpha*omega has a
    negative mode besides the constant one only when (2 pi / L)^2 < alpha*omega,
    so nonconstant even minimizers bifurcate from the constant state at
    L sqrt(alpha*omega) = 2 pi.
    """
    value = params.period * np.sqrt(params.alpha * params.omega)
    relation = "<=" if value <= 2.0 * np.pi else ">"
    return (
        f"[hill_spectra] constant-state regime: L*sqrt(alpha*omega) = {value:.6g} {relation} "
        f"2*pi = {2.0 * np.pi:.6g}, the threshold above which nonconstant even waves "
        "bifurcate from the constant state"
    )


def cmd_pipeline(args) -> int:
    config = _solver_config(args)
    with _stage("dns_validator"):
        evolution = _evolution_config(args)
    out = _out_dir(args)
    params = _resolve_problem(args, config)
    with _stage("wave_solver"):
        wave = solve_wave(params, config)
    print(f"[wave_solver] solved {wave.wave_id} (residual {wave.ode_residual_norm:.3e})")

    # one operator store per wave: the full-space one serves the spectra and
    # propositions, its sector (itself, or its sine or cosine block) the rest
    with _stage("hill_spectra"):
        ops = hill_operators(wave)
        summaries = _full_spectra(ops, args.zero_tolerance)
        propositions = check_propositions(ops, zero_tolerance=args.zero_tolerance)
    print(f"[hill_spectra] propositions {'passed' if propositions.passed else 'FAILED'}")

    with _stage("instability_scanner"):
        ops = hill_operators(ops, args.sector or "auto")
        hypotheses = verify_hypotheses(ops, sector=ops.sector, zero_tolerance=args.zero_tolerance)
    print(f"[instability_scanner] hypotheses {'passed' if hypotheses.overall else 'FAILED'}")

    kappa_min, kappa_max, steps = _scan_range(args, ops, hypotheses)
    with _stage("instability_scanner"):
        result = scan_kappa(ops, kappa_min, kappa_max, steps, sector=ops.sector)
    peak = result.most_unstable
    print(
        f"[instability_scanner] {result.verdict}; peak growth {peak.max_real_part:.6g} "
        f"at kappa={peak.kappa:.6g}"
    )

    with _stage("hill_spectra"):
        certificate = _certificate(ops, config)
    print(
        f"[hill_spectra] grid-doubling certificate max delta {certificate['max_delta']:.3e} "
        f"({'passed' if certificate['passed'] else 'FAILED'})"
    )

    dns_payload = None
    if result.verdict == "transversally unstable":
        with _stage("dns_validator"):
            gm = evolve_and_fit(ops, peak.kappa, evolution, sector=ops.sector)
        dns_payload = _dns_summary_payload(gm)
        dns_payload["passed"] = dns_payload["relative_gap"] <= DNS_GAP_TOL
        print(
            f"[dns_validator] fitted rate {gm.fitted_rate:.6g} vs scanner "
            f"{gm.predicted_rate:.6g} (relative gap {dns_payload['relative_gap']:.3g})"
        )

    overall = (
        propositions.passed
        and hypotheses.overall
        and certificate["passed"]
        and (dns_payload is None or dns_payload["passed"])
    )
    combined = {
        "problem": {
            "alpha": params.alpha,
            "omega": params.omega,
            "period": params.period,
            "tau": params.tau,
            "parity": params.parity,
            "modes": config.mode_count,
        },
        "wave": serialize.payload(wave),
        "spectra": [serialize.payload(s) for s in summaries],
        "propositions": serialize.payload(propositions),
        "hypotheses": serialize.payload(hypotheses),
        "scan": serialize.payload(result),
        "convergence_certificate": certificate,
        "dns": dns_payload,
        "verdict": result.verdict,
        "overall_passed": overall,
    }
    path = _write(out, "pipeline_report.json", serialize.envelope("pipeline_report", combined))
    print(f"[cli_io] combined report -> {path}")
    if not overall:
        if any(c.name == "profile non-constant" and not c.passed for c in propositions.checks):
            print(_constant_regime(params))
        print("[cli_io] pipeline checks FAILED")
        return 2
    print(f"[cli_io] pipeline passed; verdict: {result.verdict}")
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "dns": cmd_dns,
    "pipeline": cmd_pipeline,
}


def main(argv: Optional[list] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        with _stage(args.command):
            _merge_config(args)
            return _COMMANDS[args.command](args)
    except CommandError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

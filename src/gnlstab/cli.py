"""Command-line surface: solve -> spectrum -> verify -> scan -> dns.

Every subcommand writes its artifacts into --out and prints a short
summary.  Exit codes: 0 success, 1 operational error (bad input, failed
convergence, I/O), 2 scientific assertion failure (proposition or
hypothesis checks, broken cross-checks, convergence certificate).

``_FLAGS`` and ``_SUBCOMMANDS`` are the one place where flags and
subcommands are declared: each flag once, with its argparse keywords, and
each subcommand with its ``cmd_*`` function, help text and flag names.
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
from .evolve import SCHEMES, SEEDS, EvolutionConfig, evolve_and_fit
from .hill import HillOperators, check_propositions, hill_operators, spectrum

# kept importable here: perfbench/tracer.py wraps these names of gnlstab.cli
from .hill import build_block, build_hill  # noqa: F401
from .scan import scan_kappa, transverse_threshold, verify_hypotheses
from .waves import (
    MODES,
    ProblemParams,
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


#: destinations of the problem flags, which a stored wave (--wave) fixes
_PROBLEM_FLAGS = ("alpha", "omega", "period", "parity", "modes", "tau")

#: each flag once: destination -> add_argument keywords.  The option is
#: ``--`` plus the destination with ``-`` for ``_``; every default is None,
#: so that --config can fill it.
_FLAGS = {
    "config": dict(help="JSON file mirroring flags; explicit flags win"),
    "out": dict(help="output directory (default: current directory)"),
    "format": dict(choices=("json", "csv", "both")),
    "alpha": dict(type=float, help="nonlinearity power (> 0)"),
    "omega": dict(type=float, help="frequency (default 1.0)"),
    "period": dict(type=float, help="spatial period (default 2*pi)"),
    "parity": dict(choices=("even", "odd")),
    "modes": dict(type=int, help=f"grid size N (default {MODES})"),
    "tau": dict(
        help="constraint value, a float or auto:amplitude=A (tau such that the "
        "minimizer before multiplier rescaling has max|u| = A; tau sets only that "
        "amplitude, the solved profile does not depend on it)"
    ),
    "zero_tolerance": dict(type=float),
    "wave": dict(help="stored wave JSON to reuse instead of solving"),
    "kappa_min": dict(type=float),
    "kappa_max": dict(type=float),
    "kappa_steps": dict(type=int),
    "sector": dict(choices=("auto", "full", "odd", "even")),
    "kappa": dict(type=float, help="transverse wavenumber"),
    "scheme": dict(choices=SCHEMES),
    "dns_seed": dict(choices=SEEDS),
    "final_time": dict(type=float),
    "time_step": dict(type=float),
    "rng_seed": dict(type=int),
}


def _add_flags(parser: argparse.ArgumentParser, names) -> None:
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), **_FLAGS[name])


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are operational errors (code 1), not exits."""

    def error(self, message):
        raise CommandError(1, f"[cli_io] {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gnlstab",
        description="Periodic standing waves of the focusing generalized NLS "
        "equation and their transverse (in)stability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, names) in _SUBCOMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_text), names)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One :func:`build_parser` per process for :func:`main`: parsing leaves
    the parser as it was, so in-process callers need not rebuild it."""
    return build_parser()


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the --config JSON file (flags win).

    Each value is parsed by the flag it fills, so it meets the same type and
    choices as on the command line.  A key of another subcommand's flag is
    skipped, so one file serves every subcommand; a key that names no flag
    of any subcommand is an error.
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
    _add_flags(flags, _SUBCOMMANDS[args.command][2])
    known = {"command", *_FLAGS}
    for key, value in values.items():
        attr = str(key).replace("-", "_")
        if attr not in known:
            raise CommandError(1, f"[cli_io] config key {key!r} names no flag of any subcommand")
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


def _resolve_problem(args) -> tuple:
    """The problem, the grid size, and for ``--tau auto:amplitude=A`` the
    constrained minimizer that fixed its tau (else None), which
    :func:`solve_wave` polishes."""
    modes = MODES if args.modes is None else args.modes
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
            stationary = tau_for_amplitude(alpha, omega, period, parity, amplitude, modes)
        return stationary.params, modes, stationary
    try:
        tau = float(tau_spec)
    except ValueError:
        raise CommandError(
            1, f"[cli_io] --tau must be a float or auto:amplitude=A, got {tau_spec!r}"
        )
    with _stage("wave_solver"):
        params = ProblemParams(alpha=alpha, omega=omega, period=period, tau=tau, parity=parity)
    return params, modes, None


def _obtain_wave(args) -> WaveProfile:
    if getattr(args, "wave", None):
        with _stage("cli_io"):
            record = serialize.load(args.wave)
        if not isinstance(record, WaveProfile):
            raise CommandError(
                1, f"[cli_io] {args.wave} does not contain a wave_profile document"
            )
        return record
    params, modes, stationary = _resolve_problem(args)
    with _stage("wave_solver"):
        return solve_wave(params, modes, stationary)


def _write(out: Path, name: str, text: str) -> Path:
    path = out / name
    with _stage("cli_io"):
        serialize.save_csv(text, path)
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    out = _out_dir(args)
    wave = _obtain_wave(args)
    path = _write(out, "wave.json", serialize.dumps(wave))
    print(
        f"[wave_solver] {wave.wave_id}: residual {wave.ode_residual_norm:.3e}, "
        f"max|phi| {wave.phi.max_abs:.6g} -> {path}"
    )
    return 0


def cmd_spectrum(args) -> int:
    out = _out_dir(args)
    formats = _formats(args)
    wave = _obtain_wave(args)
    with _stage("hill_spectra"):
        ops = hill_operators(wave, "full")
        summaries = [spectrum(ops, which, args.zero_tolerance) for which in ("L1", "L2")]
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


def _check_line(check, flag: str) -> str:
    return f"[hill_spectra] {check.name}: {flag} (expected {check.expected}, got {check.actual})"


def cmd_verify(args) -> int:
    out = _out_dir(args)
    wave = _obtain_wave(args)
    with _stage("hill_spectra"):
        ops = hill_operators(wave, "full")
        report = check_propositions(ops, zero_tolerance=args.zero_tolerance)
        _write(out, "propositions.json", serialize.dumps(report))
    with _stage("instability_scanner"):
        hypotheses = verify_hypotheses(
            ops.restrict(args.sector or "auto"), zero_tolerance=args.zero_tolerance
        )
        _write(out, "hypotheses.json", serialize.dumps(hypotheses))
    for check in report.checks:
        print(_check_line(check, "ok" if check.passed else "FAIL"))
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


def _scan(args, ops: HillOperators):
    """The scan of the store over the kappa grid of the flags.  A subcommand
    without scan flags (``dns``) gets the default grid, which ends just past
    the uniform-positivity threshold K of :func:`transverse_threshold`."""
    kappa_min, kappa_max, steps = (
        getattr(args, name, None) for name in ("kappa_min", "kappa_max", "kappa_steps")
    )
    with _stage("instability_scanner"):
        if kappa_max is None:
            k = transverse_threshold(ops)[1]
            kappa_max = 1.1 * k if k > 0 else 1.0
        kappa_min = kappa_min if kappa_min is not None else 0.0
        steps = steps if steps is not None else 60
        return scan_kappa(ops, float(kappa_min), float(kappa_max), int(steps))


def cmd_scan(args) -> int:
    out = _out_dir(args)
    formats = _formats(args)
    wave = _obtain_wave(args)
    with _stage("instability_scanner"):
        ops = hill_operators(wave, args.sector or "auto")
        result = _scan(args, ops)
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
        "scheme": gm.scheme,
        "seed": gm.seed,
        "time_step": gm.time_step,
        "fitted_rate": gm.fitted_rate,
        "fit_residual": gm.fit_residual,
        "scanner_lambda": gm.predicted_rate,
        "relative_gap": gap,
    }


def _evolution_config(args) -> EvolutionConfig:
    """The given DNS flags; EvolutionConfig holds the defaults of the rest."""
    fields = {"time_step": args.time_step, "final_time": args.final_time,
              "scheme": args.scheme, "seed": args.dns_seed, "rng_seed": args.rng_seed}
    return EvolutionConfig(**{key: value for key, value in fields.items() if value is not None})


def cmd_dns(args) -> int:
    with _stage("dns_validator"):
        evolution = _evolution_config(args)
    out = _out_dir(args)
    formats = _formats(args)
    wave = _obtain_wave(args)
    with _stage("instability_scanner"):
        ops = hill_operators(wave, args.sector or "auto")
    kappa = args.kappa
    if kappa is None:
        kappa = _scan(args, ops).most_unstable.kappa
        print(f"[instability_scanner] most unstable kappa on default grid: {kappa:.6g}")
    with _stage("dns_validator"):
        gm = evolve_and_fit(ops, float(kappa), evolution)
    summary = _dns_summary_payload(gm)
    if "json" in formats:
        _write(out, "growth.json", serialize.dumps(gm))
        _write(out, "dns_summary.json", serialize.envelope("pipeline_report", summary))
    if "csv" in formats:
        _write(out, "growth.csv", serialize.growth_csv(gm))
    print(
        f"[dns_validator] kappa={gm.kappa:g}: fitted rate {gm.fitted_rate:.6g} vs "
        f"scanner {gm.predicted_rate:.6g} (relative gap {summary['relative_gap']:.3g}, "
        f"fit residual {gm.fit_residual:.3g})"
    )
    return 0


def _certificate(ops: HillOperators) -> dict:
    """Grid-doubling deltas of the 10 lowest composite-operator eigenvalues.

    The coarse store is the pipeline's; the wave refined on the doubled grid
    gets one store on the same sector.  Both read the 10 values from their
    blocks' certified low windows (:meth:`HillOperators.low_spectrum`),
    which take no whole-block spectrum where the leading Fourier blocks
    prove them."""
    wave = ops.wave
    fine = newton_refine(wave_at_resolution(wave, 2 * wave.phi.grid.size))
    stores = (ops, hill_operators(fine, ops.sector))
    lows = [o.low_spectrum("Lcal", count=10).values[:10] for o in stores]
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
    with _stage("dns_validator"):
        evolution = _evolution_config(args)
    out = _out_dir(args)
    params, modes, stationary = _resolve_problem(args)
    with _stage("wave_solver"):
        wave = solve_wave(params, modes, stationary)
    print(f"[wave_solver] solved {wave.wave_id} (residual {wave.ode_residual_norm:.3e})")

    # one operator store per wave: the full-space one serves the spectra and
    # propositions, its sector (itself, or its sine or cosine block) the rest
    with _stage("hill_spectra"):
        ops = hill_operators(wave, "full")
        summaries = [spectrum(ops, which, args.zero_tolerance) for which in ("L1", "L2")]
        propositions = check_propositions(ops, zero_tolerance=args.zero_tolerance)
    print(f"[hill_spectra] propositions {'passed' if propositions.passed else 'FAILED'}")
    for check in propositions.checks:
        if not check.passed:
            print(_check_line(check, "FAILED"))

    with _stage("instability_scanner"):
        ops = ops.restrict(args.sector or "auto")
        hypotheses = verify_hypotheses(ops, zero_tolerance=args.zero_tolerance)
    print(f"[instability_scanner] hypotheses {'passed' if hypotheses.overall else 'FAILED'}")
    for k in range(5):
        if not getattr(hypotheses, f"h{k}")["passed"]:
            print(f"[instability_scanner] H{k}: FAILED")

    result = _scan(args, ops)
    peak = result.most_unstable
    print(
        f"[instability_scanner] {result.verdict}; peak growth {peak.max_real_part:.6g} "
        f"at kappa={peak.kappa:.6g}"
    )

    with _stage("hill_spectra"):
        certificate = _certificate(ops)
    print(
        f"[hill_spectra] grid-doubling certificate max delta {certificate['max_delta']:.3e} "
        f"(tolerance {CERTIFICATE_TOL:g}, {'passed' if certificate['passed'] else 'FAILED'})"
    )

    dns_payload = None
    if result.verdict == "transversally unstable":
        with _stage("dns_validator"):
            gm = evolve_and_fit(ops, peak.kappa, evolution)
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
            "modes": modes,
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


#: the flags that scan and pipeline, or dns and pipeline, share
_SCAN_FLAGS = ("kappa_min", "kappa_max", "kappa_steps", "sector")
_DNS_FLAGS = ("scheme", "dns_seed", "final_time", "time_step", "rng_seed")

#: subcommand -> (command, help, flags in help order); builds the parser,
#: checks --config values and dispatches.  Each subcommand takes only the
#: flags its ``cmd_*`` function reads.
_SUBCOMMANDS = {
    "solve": (cmd_solve, "solve for a standing-wave profile", ("config", "out", *_PROBLEM_FLAGS)),
    "spectrum": (
        cmd_spectrum,
        "eigenvalues of the linearized operators L1, L2",
        ("config", "out", "format", *_PROBLEM_FLAGS, "zero_tolerance", "wave"),
    ),
    "verify": (
        cmd_verify,
        "structural spectral checks and hypotheses (H0)-(H4)",
        ("config", "out", *_PROBLEM_FLAGS, "zero_tolerance", "wave", "sector"),
    ),
    "scan": (
        cmd_scan,
        "growth rates over a transverse wavenumber grid",
        ("config", "out", "format", *_PROBLEM_FLAGS, "wave", *_SCAN_FLAGS),
    ),
    "dns": (
        cmd_dns,
        "time integration of the linearized flow",
        ("config", "out", "format", *_PROBLEM_FLAGS, "wave", "sector", "kappa", *_DNS_FLAGS),
    ),
    "pipeline": (
        cmd_pipeline,
        "all stages for one parameter set, combined report",
        ("config", "out", *_PROBLEM_FLAGS, "zero_tolerance", *_SCAN_FLAGS, *_DNS_FLAGS),
    ),
}


def main(argv: Optional[list] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        # problem flags from argv; those --config fills are skipped with --wave
        given = [f"--{name}" for name in _PROBLEM_FLAGS if getattr(args, name) is not None]
        with _stage(args.command):
            _merge_config(args)
            if given and getattr(args, "wave", None):
                raise CommandError(
                    1, f"[cli_io] {', '.join(given)} cannot be given with --wave, "
                    "whose stored wave fixes the problem"
                )
            return _SUBCOMMANDS[args.command][0](args)
    except CommandError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: validate, simulate, attack, optimize, demo.

Machine contract: exit codes (0 ok/secure, 3 insecure, 2 invalid input)
and deterministic JSON bodies.  Same seed and flags give byte-identical
reports; stderr is for humans only.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .adversary import (
    best_message_attack,
    key_distinguishability,
    key_reuse_feasibility,
    message_attack_sim,
    no_message_attack_sim,
    no_message_optimal,
)
from .config import DEFAULT_TOL
from .conditions import validate
from .designer import optimize
from .fixtures import BUILTIN
from .linalg import matrix_from_json, matrix_to_json
from .protocol import TaggingUnitary, simulate_honest_batch

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INSECURE = 3


def _parse_tol_overrides(pairs):
    overrides = {}
    for item in pairs or []:
        name, _, value = item.partition("=")
        if not _:
            raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
        if name not in DEFAULT_TOL.as_dict():
            raise ValueError(f"unknown tolerance {name!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ValueError(f"--tol {name} expects a number, got {value!r}") from None
    return overrides


def _parse_priors(text):
    try:
        priors = tuple(float(x) for x in text.split(","))
    except ValueError:
        priors = ()
    if len(priors) != 2:
        raise argparse.ArgumentTypeError(f"expects two numbers p0,p1, got {text!r}")
    return priors


def _parse_seed(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expects a non-negative integer, got {text!r}")
    return int(text)


def _load_unitary(source, tol):
    """The tagging unitary named by ``source``: a builtin name or a JSON path."""
    if source is None:
        raise ValueError("--input PATH (or a builtin name) is required")
    if source in BUILTIN:
        mat = BUILTIN[source]()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
                ) from exc
            except RecursionError as exc:
                raise ValueError("malformed JSON: nested too deeply") from exc
        mat = matrix_from_json(obj)
    return TaggingUnitary(mat, tol)


def _matrix_hash(mat) -> str:
    canonical = json.dumps(matrix_to_json(mat), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _report_header(args, tol, mat) -> dict:
    return {
        "tool": "qmac",
        "version": __version__,
        "subcommand": args.command,
        "seed": args.seed,
        "tolerances": tol.as_dict(),
        "input_sha256": _matrix_hash(mat),
    }


def _json_default(obj):
    """How ``json.dumps`` renders what it cannot: a matrix as matrix JSON, a
    result dataclass as its fields."""
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(report: dict, out_path, records: bytes = b""):
    """Write ``json.dumps(report, sort_keys=True, indent=2)`` and a newline,
    rendering result objects and matrices by :func:`_json_default`.  A NaN
    or infinite float raises ``ValueError`` before anything is written.

    The report is built as UTF-8 bytes.  ``--out`` is written in binary, so
    the file holds exactly those bytes, with LF line ends on every
    platform; stdout stays a text stream and gets the decoded report.

    ``records``, when not empty, is the rendered body of the report's
    top-level ``records`` list as UTF-8 bytes (items indented four spaces,
    joined by ``b",\n"``); it is spliced in where the report holds
    ``"records": []``.  simulate renders each of its few distinct records
    once and joins them per trial, since the indenting encoder is pure
    Python, and as bytes, so no report-sized ``str`` is built for a file.
    """
    text = json.dumps(
        report, sort_keys=True, indent=2, default=_json_default, allow_nan=False
    )
    parts = [text.encode(), b"\n"]
    if records:
        head, tail = text.split('\n  "records": []', 1)
        parts = [head.encode(), b'\n  "records": [\n', records, b"\n  ]", tail.encode(), b"\n"]
    if out_path:
        with open(out_path, "wb") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.write(b"".join(parts).decode())


def cmd_validate(args, tol) -> int:
    u = _load_unitary(args.input, tol)
    report = validate(u, attack_budget=args.budget, seed=args.seed)
    body = _report_header(args, tol, u.u)
    body["report"] = report
    _emit(body, args.out)
    return EXIT_OK if report.overall_secure else EXIT_INSECURE


def cmd_simulate(args, tol) -> int:
    """Honest rounds for each message, one record per trial.  A record
    depends only on its (message, outcome), so each of the eight is rendered
    once, as UTF-8 bytes, and :func:`_emit` splices their per-trial join
    into the report."""
    u = _load_unitary(args.input, tol)
    rng = np.random.default_rng(args.seed)
    rendered = []  # record bytes of (message, outcome) at 4 * message + outcome
    order = []
    correct = accepted = 0
    fidelities = []
    for message in (0, 1):
        outcomes, fid = simulate_honest_batch(u, message, args.trials, rng)
        rendered += (
            b"    " + json.dumps(
                {"message": message, "outcome": o, "accepted": o < 2,
                 "decoded": o if o < 2 else None, "key_fidelity": fid},
                sort_keys=True, indent=2, allow_nan=False,
            ).replace("\n", "\n    ").encode()
            for o in range(4)
        )
        order += (outcomes + 4 * message).tolist()
        accepted += int((outcomes < 2).sum())
        correct += int((outcomes == message).sum())
        fidelities.append(fid)
    total = 2 * args.trials
    summary = {
        "trials_per_message": args.trials,
        "empty": total == 0,
        "acceptance_rate": accepted / total if total else None,
        "decode_accuracy": correct / total if total else None,
        "mean_key_fidelity": float(np.mean(fidelities)),
    }
    body = _report_header(args, tol, u.u)
    body["records"] = []
    body["summary"] = summary
    _emit(body, args.out, b",\n".join(map(rendered.__getitem__, order)))
    return EXIT_OK


def cmd_attack(args, tol) -> int:
    u = _load_unitary(args.input, tol)
    p0, p1 = args.priors
    rng = np.random.default_rng(args.seed)
    opt = no_message_optimal(u)
    nm_freq = no_message_attack_sim(u, opt.strategy, args.trials, rng)
    search = best_message_attack(u, p0=p0, p1=p1, budget=args.budget, rng=rng)
    msg_freq = message_attack_sim(u, search.strategy, args.trials, rng, p0=p0, p1=p1)
    dist = key_distinguishability(u)
    reuse = key_reuse_feasibility(u)
    body = _report_header(args, tol, u.u)
    body["attacks"] = {
        "no_message": {
            **vars(opt),
            "monte_carlo_frequency": nm_freq,
            "monte_carlo_delta": nm_freq - opt.probability,
        },
        "message": {
            **vars(search),
            "priors": [p0, p1],
            "monte_carlo_frequency": msg_freq,
            "monte_carlo_delta": msg_freq - search.probability,
        },
        "key_distinguishing": dist,
        "key_reuse": reuse,
    }
    body["trials"] = args.trials
    _emit(body, args.out)
    return EXIT_OK


def cmd_optimize(args, tol) -> int:
    warm = _load_unitary(args.warm_start, tol).u if args.warm_start else None
    try:
        result = optimize(
            restarts=args.restarts, budget=args.budget, rng=args.seed, warm_start=warm, tol=tol
        )
    except RuntimeError as exc:  # no candidate passes the checks under ``tol``
        raise ValueError(str(exc)) from exc
    if args.trace_out:  # before the report, so a bad path leaves no report
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            for restart, it, score in result.trace:
                fh.write(
                    json.dumps(
                        {"restart": restart, "iter": it, "score": score},
                        sort_keys=True,
                    )
                    + "\n"
                )
    body = _report_header(args, tol, result.unitary)
    body["result"] = {
        "unitary": result.unitary,
        "score": {**vars(result.score), "score_kind": "heuristic-worst-case"},
        "trace_length": len(result.trace),
    }
    _emit(body, args.out)
    return EXIT_OK


def cmd_demo(args, tol) -> int:
    """Validate and attack the built-in secure example end to end."""
    u = _load_unitary("secure_example", tol)
    report = validate(u, attack_budget=args.budget, seed=args.seed)
    pf_nm = report.advisory["no_message_pf_optimal"]
    pf_msg = report.advisory["message_attack_pf_best"]
    body = _report_header(args, tol, u.u)
    body["unitary"] = u.u
    body["report"] = report
    body["attacks"] = {
        "no_message_optimal": pf_nm,
        "message_attack_best": pf_msg,
        "key_distinguishing": key_distinguishability(u),
        "key_reuse": key_reuse_feasibility(u),
    }
    _emit(body, args.out)
    print(
        f"secure={report.overall_secure} "
        f"no_message_pf={pf_nm:.6f} "
        f"message_pf_best={pf_msg:.6f}",
        file=sys.stderr,
    )
    return EXIT_OK if report.overall_secure else EXIT_INSECURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmac",
        description="Simulator and security analyzer for the singlet-keyed "
        "one-bit quantum authentication protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, needs_input=True, trials=False, budget=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if needs_input:
            p.add_argument(
                "--input",
                help="matrix JSON path, or a builtin name: "
                + ", ".join(sorted(BUILTIN)),
            )
        p.add_argument("--seed", type=_parse_seed, default=0)
        if trials:
            p.add_argument("--trials", type=int, default=10_000)
        if budget:
            p.add_argument("--budget", type=int, default=2000)
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument(
            "--tol", action="append", metavar="NAME=VALUE",
            help="tolerance override, repeatable",
        )
        return p

    command("validate", cmd_validate, "run the security condition checklist")
    command("simulate", cmd_simulate, "honest-protocol Monte Carlo runs",
            trials=True, budget=False)
    p_attack = command("attack", cmd_attack, "run all four attack analyses", trials=True)
    p_attack.add_argument(
        "--priors", type=_parse_priors,
        default=(0.5, 0.5), help="message priors p0,p1",
    )
    p_opt = command("optimize", cmd_optimize, "search for a secure tagging unitary",
                    needs_input=False)
    p_opt.add_argument("--restarts", type=int, default=4)
    p_opt.add_argument("--warm-start", help="matrix JSON path or builtin name")
    p_opt.add_argument("--trace-out", help="write the search trace JSONL here")
    command("demo", cmd_demo, "full story on the builtin secure example",
            needs_input=False)
    return parser


# Built by the first main call and reused (building takes about 15 times as
# long as parsing); not at import, so importers that never call main do not
# pay for it.  parse_args leaves the parser unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        tol = DEFAULT_TOL.override(**_parse_tol_overrides(args.tol))
        return args.handler(args, tol)
    except (ValueError, OSError, MemoryError) as exc:  # numpy's names the size
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

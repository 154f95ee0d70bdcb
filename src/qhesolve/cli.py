"""Command-line front door: solve, synth, bloch, compile, simulate, serve, submit.

Every verb is deterministic for a fixed argv: all randomness flows from
explicit --seed flags. Usage errors exit with status 2, runtime failures
with status 1 and a one-line diagnostic on stderr.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import re
import sys

import numpy as np

from . import circ, fixtures, hecrypt, hhl, qserve, qsim, synth


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _parse_floats(text: str, count: int, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated numbers")
    return np.array([float(p) for p in parts])


def _port(text: str) -> int:
    if not 0 <= int(text) <= 65535:
        raise argparse.ArgumentTypeError(f"port {text} is outside 0..65535")
    return int(text)


def _write_out(path: str | None, text: str):
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _angle_from(args, name: str) -> float | None:
    rad = getattr(args, name)
    deg = getattr(args, f"{name}_deg")
    if rad is not None and deg is not None:
        raise ValueError(f"--{name.replace('_', '-')} given in both units")
    if deg is not None:
        return math.radians(deg)
    return rad


def _add_angle_pair(parser, flag: str, help_text: str):
    parser.add_argument(flag, type=float, default=None,
                        help=f"{help_text} (radians)")
    parser.add_argument(f"{flag}-deg", type=float, default=None,
                        help=f"{help_text} (degrees)")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    if args.fixture:
        system = fixtures.FIXTURES[args.fixture]()
    else:
        if args.matrix is None or args.rhs is None:
            raise ValueError("provide --fixture, or both --matrix and --rhs")
        system = hhl.LinearSystem(
            _parse_floats(args.matrix, 4, "--matrix").reshape(2, 2),
            _parse_floats(args.rhs, 2, "--rhs"))

    if args.key is not None:
        key = hecrypt.MaskKey(tuple(int(b) for b in args.key.split(",")))
    elif args.key_seed is not None:
        key = hecrypt.keygen(2, args.key_seed)
    else:
        raise ValueError("provide --key or --key-seed")

    theta = _angle_from(args, "theta_override")
    if theta is None and args.fixture and args.mode == "replica":
        theta = fixtures.REPLICA_THETA

    if args.no_substitute:
        t_budget = None
    elif args.t_budget is not None:
        t_budget = args.t_budget
    else:
        t_budget = 7 if args.mode == "replica" else None
    if args.no_legalize:
        center = None
    else:
        center = hhl.EIGEN_QUBIT if args.mode == "replica" else None

    config = hhl.SolverConfig(
        mode=args.mode,
        c_constant=args.c_constant,
        theta_override=theta,
        execution=args.execution,
        shots=args.shots,
        seed=args.seed,
        star_center=center,
        rs_t_budget=t_budget,
    )

    report = hecrypt.solve_encrypted(system, key, args.server, config)
    _write_out(args.out, hhl.report_to_text(report))
    return 0


# ---------------------------------------------------------------------------
# synth / bloch
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    angle = _angle_from(args, "target_ry")
    if angle is None:
        raise ValueError("provide --target-ry or --target-ry-deg")
    result = synth.approximate_unitary(qsim.ry_matrix(angle), args.t_budget)
    lines = [
        f"target_ry_rad={_fmt(angle)}",
        f"similarity={_fmt(result.similarity)}",
        f"t_count={result.sequence.t_count}",
        f"length={len(result.sequence.gates)}",
        f"gates={' '.join(result.sequence.gates)}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        _write_out(args.out, circ.emit_text(result.sequence.to_circuit()))
    return 0


def _cmd_bloch(args) -> int:
    coverage = synth.enumerate_states(args.t_budget)
    marked = []
    angle = _angle_from(args, "mark_ry")
    if angle is not None:
        target_state = qsim.ry_matrix(angle) @ np.array([1, 0], dtype=complex)
        marked.append(("target", qsim.bloch_point(target_state)))
        marked.append(("approx", synth.closest_state(target_state, coverage)))
    _write_out(args.out, synth.export_bloch_csv(coverage, marked))
    if args.out:
        sys.stdout.write(f"points={len(coverage)}\n")
    return 0


# ---------------------------------------------------------------------------
# compile / simulate / serve / submit
# ---------------------------------------------------------------------------

def _read_circuit(path: str) -> circ.Circuit:
    with open(path, encoding="utf-8") as handle:
        return circ.parse_text(handle.read())


def _cmd_compile(args) -> int:
    circuit = _read_circuit(args.circuit)
    before = len(circuit.gates)
    if args.substitute_t_budget is not None:
        circuit, _ = synth.substitute_clifford_t(circuit,
                                                 args.substitute_t_budget)
    if args.legalize_center is not None:
        circuit = circ.legalize_star(circuit, args.legalize_center)
    _write_out(args.out, circ.emit_text(circuit))
    if args.out:
        sys.stdout.write(f"gates_before={before}\n"
                         f"gates_after={len(circuit.gates)}\n")
    return 0


def _job_from_args(args, circuit_text: str) -> qserve.Job:
    postselect = None
    if args.postselect:
        qubit, _, outcome = args.postselect.partition(":")
        postselect = (int(qubit), int(outcome))
    bases = []
    for spec in args.basis or ():
        basis, _, qubit = spec.partition(":")
        bases.append((basis.upper(), int(qubit)))
    return qserve.Job(
        id=args.id,
        circuit=circuit_text,
        mode=args.execution,
        shots=args.shots if args.execution == "sampled" else None,
        seed=args.seed if args.execution == "sampled" else None,
        postselect=postselect,
        bases=tuple(bases) if args.execution == "sampled" else (),
        noise_p=args.noise_p or None,
    )


def _cmd_serve(args) -> int:
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(message)s")
    server = qserve.ExecutionServer(args.host, args.port, args.timeout)
    host, port = server.address
    sys.stdout.write(f"listening on {host}:{port}\n")
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def _cmd_run(args) -> int:
    """simulate (in-process, no --server) and submit share this path."""
    circuit_text = circ.emit_text(_read_circuit(args.circuit))
    response = qserve.submit(args.server, _job_from_args(args, circuit_text),
                             timeout=args.timeout)
    _write_out(args.out, json.dumps(response, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhesolve",
        description="Masked delegation of a 2x2 quantum linear solver")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_verb(name, help_text):
        return sub.add_parser(
            name, help=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = add_verb("solve", "end-to-end encrypted solve")
    p.add_argument("--matrix", help="A as a11,a12,a21,a22 (symmetric)")
    p.add_argument("--rhs", help="b as b1,b2")
    p.add_argument("--fixture", choices=sorted(fixtures.FIXTURES),
                   help="built-in demonstration system")
    p.add_argument("--key", help="binary mask, e.g. 1,0")
    p.add_argument("--key-seed", type=int, default=None,
                   help="generate the key from this seed")
    p.add_argument("--mode", choices=("exact", "replica"), default="exact")
    p.add_argument("--execution", choices=("analytic", "sampled"),
                   default="analytic")
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c-constant", type=float, default=None,
                   help="inversion constant C (default: lambda_min)")
    _add_angle_pair(p, "--theta-override", "replica rotation angle")
    p.add_argument("--t-budget", type=int, default=None,
                   help="Clifford+T substitution budget (replica default: 7)")
    p.add_argument("--no-substitute", action="store_true",
                   help="keep ry gates instead of Clifford+T sequences")
    p.add_argument("--no-legalize", action="store_true",
                   help="skip star-topology legalization")
    p.add_argument("--server", default=None,
                   help="host:port of a running server (default: in-process)")
    p.add_argument("--out", default=None, help="write the report here")
    p.set_defaults(func=_cmd_solve)

    p = add_verb("synth", "Clifford+T approximation of a ry gate")
    _add_angle_pair(p, "--target-ry", "rotation angle to approximate")
    p.add_argument("--t-budget", type=int, default=7)
    p.add_argument("--out", default=None, help="write the sequence here")
    p.set_defaults(func=_cmd_synth)

    p = add_verb("bloch", "reachable Bloch points as CSV")
    p.add_argument("--t-budget", type=int, default=7)
    _add_angle_pair(p, "--mark-ry", "also mark this rotation's target/approx")
    p.add_argument("--out", default=None, help="write the CSV here")
    p.set_defaults(func=_cmd_bloch)

    p = add_verb("compile", "rewrite a circuit file")
    p.add_argument("--circuit", required=True, help="input circuit file")
    p.add_argument("--legalize-center", type=int, default=None,
                   help="legalize CNOTs for a star with this center")
    p.add_argument("--substitute-t-budget", type=int, default=None,
                   help="replace ry gates with Clifford+T approximations")
    p.add_argument("--out", default=None, help="write the circuit here")
    p.set_defaults(func=_cmd_compile)

    for verb, needs_server in (("simulate", False), ("submit", True)):
        p = add_verb(verb, f"{verb} a circuit job")
        p.add_argument("--circuit", required=True, help="circuit file")
        p.add_argument("--id", default="job-1", help="job id token")
        p.add_argument("--execution", choices=("analytic", "sampled"),
                       default="analytic")
        p.add_argument("--shots", type=int, default=8192)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--postselect", default=None, metavar="QUBIT:OUTCOME")
        p.add_argument("--basis", action="append", metavar="BASIS:QUBIT",
                       help="measurement basis, repeatable (e.g. Z:0)")
        p.add_argument("--noise-p", type=float, default=None,
                       help="depolarizing probability (sampled mode)")
        if needs_server:
            p.add_argument("--server", required=True, help="host:port")
            p.add_argument("--timeout", type=float,
                           default=qserve.DEFAULT_TIMEOUT)
        else:
            p.set_defaults(server=None, timeout=qserve.DEFAULT_TIMEOUT)
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_run)

    p = add_verb("serve", "run the execution server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=7177)
    p.add_argument("--timeout", type=float, default=qserve.DEFAULT_TIMEOUT)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # argparse reads -1,2 as a flag
        if argv[i] in ("--matrix", "--rhs") and re.match("-[.0-9]", argv[i + 1]):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, qserve.TransportError,
            qserve.ServerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line frontend.

Subcommands emit JSON on stdout (human-readable text behind --pretty).
Exit codes: 0 success / all suites pass, 1 violations found, 2 usage or
input error.

Each command imports the library modules it uses when it runs, so a
process loads only those: a dominance or gamas decide and
`rank-partition` never load the character, tensor or harness code, a gram
decide and `gmf` load the gram and character code but no tensor or
permutation code, and a brute decide and `symmetrize` load `brute` on
`partitions` and `linalg` only.
"""

from __future__ import annotations

import argparse
import json
import sys

from .linalg import Matrix, VectorConfiguration
from .partitions import Partition


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_config(path: str) -> VectorConfiguration:
    return VectorConfiguration.from_json_obj(_load_json(path))


def _cmd_character_table(args) -> int:
    from .characters import character_table

    table = character_table(args.n)
    if args.pretty:
        classes = [rho.to_text() for rho in table.classes]
        width = max(len(c) for c in classes) + 2
        header = " " * width + "".join(f"{c:>{width}}" for c in classes)
        print(header)
        print(" " * width + "".join(f"{s:>{width}}" for s in table.class_sizes))
        for lam, values in table.rows.items():
            print(
                f"{lam.to_text():>{width}}"
                + "".join(f"{v:>{width}}" for v in values)
            )
    else:
        _emit(table.to_json_obj())
    return 0


def _cmd_symmetrize(args) -> int:
    from .brute import symmetrize

    cfg = _load_config(args.config)
    lam = Partition.from_text(args.shape)
    tensor = symmetrize(cfg, lam)
    if args.pretty:
        if tensor.is_zero():
            print("0")
        for idx, val in sorted(tensor.entries.items()):
            print(f"{val} * e{list(idx)}")
    else:
        _emit(tensor.to_json_obj())
    return 0


_METHODS = ("brute", "gram", "gamas", "dominance")


def _cmd_decide(args) -> int:
    cfg = _load_config(args.config)
    lam = Partition.from_text(args.shape)
    # refused under every method, as the brute and gram routes refuse it
    if cfg.n < 1 and lam.size == 0:
        raise ValueError("n must be at least 1")
    methods = _METHODS if args.method == "all" else (args.method,)
    answers = {}
    certificate = None
    for method in methods:
        if method == "brute":
            from .brute import nonzero_after_symmetrize

            answers[method] = nonzero_after_symmetrize(cfg, lam)
        elif method == "gram":
            from .gram import generalized_matrix_function, gram_matrix

            answers[method] = generalized_matrix_function(gram_matrix(cfg), lam) != 0
        elif method == "gamas":
            from .matroid import gamas_condition

            certificate = gamas_condition(cfg, lam)
            answers[method] = certificate is not None
        elif method == "dominance":
            from .matroid import decide_appears

            answers[method] = decide_appears(cfg, lam)
    agreed = len(set(answers.values())) == 1
    appears = answers[methods[0]]
    result = {
        "appears": appears,
        "certificate": certificate.to_json_obj() if certificate else None,
        "methods_agreed": agreed,
    }
    if args.pretty:
        verdict = "appears" if appears else "does not appear"
        print(f"shape {lam.to_text() or '()'} {verdict} "
              f"({'methods agree' if agreed else 'METHODS DISAGREE: ' + str(answers)})")
        if certificate:
            for block in certificate.blocks:
                print(f"  independent block: {list(block)}")
    else:
        _emit(result)
    return 0


def _cmd_rank_partition(args) -> int:
    from .matroid import rank_partition

    cfg = _load_config(args.config)
    rho = rank_partition(cfg)
    if args.pretty:
        print(f"rho = {list(rho.rho)}; covers {rho.size} of {cfg.n} vectors")
    else:
        _emit(rho.to_json_obj())
    return 0


def _cmd_gmf(args) -> int:
    from .gram import generalized_matrix_function, gram_matrix

    if (args.matrix is None) == (args.config is None):
        raise ValueError("gmf needs exactly one of --matrix or --config")
    if args.matrix:
        matrix = Matrix.from_json_obj(_load_json(args.matrix))
    else:
        matrix = gram_matrix(_load_config(args.config))
    lam = Partition.from_text(args.shape)
    value = generalized_matrix_function(matrix, lam)
    if args.pretty:
        print(f"d_chi(A) for shape {lam.to_text() or '()'} = {value}")
    else:
        _emit({"value": str(value)})
    return 0


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise ValueError(f"--dims must be comma-separated integers, got {text!r}") from None


def _cmd_selfcheck(args) -> int:
    from .selfcheck import TrialSpec, run_verification

    # options left unset take the TrialSpec defaults
    given = {
        "seed": args.seed,
        "n_max": args.n_max,
        "dims": None if args.dims is None else _parse_dims(args.dims),
        "trials_per_cell": args.trials,
        "entry_range": args.entry_range,
        "p_duplicate": args.p_dup,
        "p_scale": args.p_scale,
        "p_zero": args.p_zero,
    }
    spec = TrialSpec(**{name: value for name, value in given.items() if value is not None})
    report = run_verification(spec, jobs=args.jobs)
    if args.pretty:
        print(
            f"{report.cells_run} cells, {report.trials_run} trials, "
            f"{len(report.violations)} violations"
        )
        for violation in report.violations:
            print(f"  [{violation['suite']}] n={violation['n']} d={violation['d']} "
                  f"trial={violation['trial_index']} shape={violation['shape']}: "
                  f"expected {violation['expected']}, got {violation['actual']}")
    else:
        _emit(report.to_json_obj())
    print(f"elapsed: {report.elapsed:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_replay(args) -> int:
    from .selfcheck import TrialSpec, check_record, check_trial, run_standalone_suite

    report = _load_json(args.report)
    if not isinstance(report, dict) or not {"spec", "violations"} <= report.keys():
        raise ValueError('a report is a JSON object with keys "spec" and "violations"')
    spec = TrialSpec.from_json_obj(report["spec"])
    violations = report["violations"]
    if not isinstance(violations, list):
        raise ValueError(f"violations must be a list, got {violations!r}")
    for i, record in enumerate(violations):
        check_record(spec, i, record)
    if not 0 <= args.index < len(violations):
        raise ValueError(f"no violation #{args.index}: the report has {len(violations)}")
    record = violations[args.index]
    suite = record["suite"]
    if record.get("config") is not None:
        trial = check_trial(spec, record["n"], record["d"], record["trial_index"])
        fresh = [v for v in trial if v["suite"] == suite]
    else:
        fresh = run_standalone_suite(suite, spec)
    reproduced = any(v["shape"] == record["shape"] for v in fresh)
    result = {"record": record, "reproduced": reproduced, "violations": fresh}
    if args.pretty:
        print(f"replay of violation #{args.index} ({suite}): "
              + ("reproduced" if reproduced else "not reproduced"))
    else:
        _emit(result)
    return 1 if reproduced else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isotypic",
        description="Exact deciders for nonvanishing of symmetrized tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("character-table", help="character table of S_n as JSON")
    p.add_argument("n", type=int)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_character_table)

    p = sub.add_parser("symmetrize", help="apply the shape's projector to a configuration")
    p.add_argument("--config", required=True, help="VectorConfiguration JSON file")
    p.add_argument("--shape", required=True, help="partition, e.g. '2,1'")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_symmetrize)

    p = sub.add_parser("decide", help="decide whether the shape appears")
    p.add_argument("--config", required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--method", choices=_METHODS + ("all",), default="all")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("rank-partition", help="rank partition of a configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_rank_partition)

    p = sub.add_parser("gmf", help="generalized matrix function of a matrix")
    p.add_argument("--matrix", help="matrix JSON file: {\"entries\": [[...], ...]}")
    p.add_argument("--config", help="configuration file; uses its Gram matrix")
    p.add_argument("--shape", required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_gmf)

    p = sub.add_parser("selfcheck", help="run the verification harness")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--dims")
    p.add_argument("--trials", type=int)
    p.add_argument("--entry-range", type=int)
    p.add_argument("--p-dup", type=float)
    p.add_argument("--p-scale", type=float)
    p.add_argument("--p-zero", type=float)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_selfcheck)

    p = sub.add_parser("replay", help="re-run a single violation from a report")
    p.add_argument("--report", required=True, help="selfcheck JSON output file")
    p.add_argument("--index", type=int, default=0, help="violation index")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Subcommands: ``generate`` (freeze a problem instance), ``run`` (one
trace), ``sweep-m`` (one aggregate over a grid of inner-iteration
counts) and ``compare`` (one aggregate over a set of methods).  Every
subcommand accepts ``--config FILE`` holding ``key = value`` lines with
keys named exactly like the long flags; explicit flags override the
file, which overrides the defaults.  Keys that name no flag of the
subcommand are ignored.  A switch such as ``no-reuse`` is set by the
values 1, true, yes or on and left unset by 0, false, no or off, in any
case; any other value is refused like a bad flag value.

Solver and problem defaults are declared once, as the field defaults of
:class:`~specsum.solvers.SolverConfig` and
:class:`~specsum.harness.ExperimentSpec`: a flag of ``run``, ``sweep-m``
or ``compare`` that is neither given nor in the file leaves its field
at that default.

Each method reads only some :class:`~specsum.solvers.SolverConfig`
fields, declared once beside its driver.  ``run`` and ``sweep-m`` refuse
a value, given by a flag or the config file, for a field the method does
not read, after the value checks; ``sweep-m`` sets ``m`` from its grid,
so it takes no ``--m`` and refuses a method that does not read ``m``.
``compare`` passes its flags to every method, and a ``-nodamp`` token
suffix only to a method that reads ``damping``.

``run``, ``sweep-m`` and ``compare`` refuse a usage error that does
not need the problem (an unknown method token, a parameter out of
range, a value for a field the method does not read, a repeated run)
before they build the problem, so before a dataset is parsed; only the
checks against its component count N (S <= N) wait for it.

Exit codes: 0 success, 1 usage/configuration error (a repeated run
included), 2 I/O error (malformed, non-finite or overflowing dataset
values, too large a feature index, malformed frozen instances), 3
numerical fault outside the recorded sentinels (a singular instance,
reported by numpy as ``LinAlgError``, or an ``ArithmeticError`` such as
an instance whose aggregates overflow).
"""

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from . import harness
from .problems import DatasetFormatError
from .solvers import METHODS, SAMPLERS, SolverConfig, methods_reading

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            values[key.strip()] = val.strip()
    return values


def _tokens(text):
    return str(text).replace(",", " ").split()


def _int_list(text):
    return [int(t) for t in _tokens(text)]


_PROBLEM_FLAGS = (
    ("--instance", {"help": "frozen .npz problem instance"}),
    ("--dataset", {"help": "dataset file (logistic regression)"}),
    ("--lambda", {"dest": "lam", "type": float, "help": "L2 regularization"}),
    ("--n", {"type": int, "help": "dimension of a generated quadratic"}),
    ("--N", {"type": int, "help": "component count of a generated quadratic"}),
    ("--problem-seed", {"type": int, "help": "generator seed for the instance"}),
)

_SOLVER_FLAGS = (
    ("--method", {"help": "solver method"}),
    ("--m", {"type": int, "help": "inner-iteration count"}),
    ("--S", {"type": int, "help": "sample size"}),
    ("--eta", {"type": float, "help": "Armijo constant"}),
    ("--gamma-min", {"type": float}),
    ("--gamma-max", {"type": float}),
    ("--delta", {"type": float, "help": "extra damping exponent"}),
    ("--maxiter", {"type": int}),
    ("--sampler", {"choices": SAMPLERS}),
    ("--eps", {"type": float, "help": "importance-sampling decay exponent"}),
    ("--eta0", {"type": float}),
    ("--eta1", {"type": float}),
    ("--beta", {"type": float}),
    ("--p", {"type": int, "help": "epoch length for the BB baselines"}),
    ("--no-reuse", {"dest": "reuse", "action": "store_false",
                    "help": "re-evaluate the base estimator value every iteration"}),
    ("--no-damping", {"dest": "damping", "action": "store_false",
                      "help": "clip the coefficient but skip the 1/k division"}),
)

_SEED_FLAG = ("--seed", {"type": int})

_OUT_DIR_FLAG = ("--out", {"dest": "out_dir", "metavar": "DIR", "help": "output directory"})

_AGGREGATE_FLAGS = (
    ("--seeds", {"type": _int_list, "default": "0", "help": "comma-separated seeds"}),
    ("--aggregate", {"dest": "aggregation", "choices": harness.AGGREGATIONS}),
    _OUT_DIR_FLAG,
)

# name -> (help, flags); the flags of run, sweep-m and compare default to
# SUPPRESS, so an absent flag leaves its dataclass field at its default
_SUBCOMMANDS = {
    "generate": ("freeze a random problem instance", (
        ("--family", {"default": "quadratic"}),
        ("--n", {"type": int}),
        ("--N", {"type": int}),
        ("--seed", {"type": int, "default": harness.ExperimentSpec.problem_seed}),
        ("--out", {"help": "output .npz path"}),
    )),
    "run": ("one solver run, one trace CSV", _PROBLEM_FLAGS + _SOLVER_FLAGS + (
        _SEED_FLAG,
        _OUT_DIR_FLAG,
    )),
    # the grid sets m, so sweep-m takes no --m
    "sweep-m": ("aggregate over a grid of m values", _PROBLEM_FLAGS + tuple(
        flag for flag in _SOLVER_FLAGS if flag[0] != "--m") + (
        ("--m-grid", {"type": _int_list, "default": "1,3,5,10",
                      "help": "comma-separated m values"}),
    ) + _AGGREGATE_FLAGS),
    "compare": ("aggregate over a set of methods", _PROBLEM_FLAGS + _SOLVER_FLAGS + (
        ("--methods", {"type": _tokens, "default": "slises-ais,slises-uni,spectral-full",
                       "help": "comma-separated method tokens"}),
    ) + _AGGREGATE_FLAGS),
}


def build_parser():
    """The parser, and per subcommand its flag actions by config-file key."""
    parser = _Parser(prog="specsum",
                     description="Finite-sum spectral-gradient benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    keyed = {}
    for name, (summary, flags) in _SUBCOMMANDS.items():
        default = None if name == "generate" else argparse.SUPPRESS
        p = sub.add_parser(name, help=summary, argument_default=default)
        p.add_argument("--config", default=None, help="key = value file of flag values")
        keyed[name] = (p, {flag[2:]: p.add_argument(flag, **kw) for flag, kw in flags})
    return parser, keyed


# a config-file switch value (any case) -> whether it sets the switch
_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


def _apply_config(parser, actions, path):
    """Make the file's values the parser's defaults: flag > file > default.

    A string default is converted by argparse with the flag's own type.
    """
    for key, raw in _read_config_file(path).items():
        action = actions.get(key)
        if action is None:
            continue  # no flag of this subcommand names the key
        if action.nargs == 0:  # a switch such as --no-reuse
            if raw.lower() not in _SWITCH_VALUES:
                parser.error(f"{path}: {key} = {raw!r} is not one of "
                             f"{', '.join(_SWITCH_VALUES)}")
            if _SWITCH_VALUES[raw.lower()]:
                action.default = action.const
        elif action.choices is not None and raw not in action.choices:
            parser.error(f"{path}: {key} = {raw!r} is not one of {', '.join(action.choices)}")
        else:
            action.default = raw


def _from_flags(cls, args):
    """A ``cls`` dataclass holding the parsed values that name its fields."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given})


# the flag of each SolverConfig field but the method: a field whose method
# does not read it may not be given to run or sweep-m
_FIELD_FLAGS = {kw.get("dest", flag[2:].replace("-", "_")): flag
                for flag, kw in _SOLVER_FLAGS + (_SEED_FLAG,) if flag != "--method"}


def _refuse_unread(method, given):
    """Refuse each (field, flag) pair of ``given`` whose field ``method``
    does not read."""
    for name, flag in given:
        readers = methods_reading(name)
        if method not in readers:
            raise ValueError(f"{flag} applies only to {', '.join(readers)}, "
                             f"not to method {method!r}")


def _given(args):
    """(field, flag) of each solver field given by a flag or the config file."""
    return [(name, flag) for name, flag in _FIELD_FLAGS.items() if name in args]


_METHOD_TOKENS = {  # compare alias -> (method, sampler; None keeps --sampler)
    "slises-ais": ("slises", "ais"),
    "slises-uni": ("slises", "uniform"),
    "slises-uniform": ("slises", "uniform"),
    "slises-mod": ("slises-modified", None),
}


def _method_config(token, base):
    """Translate a compare token, a method or an alias with an optional
    ``-nodamp`` suffix, into a solver config."""
    core = token.removesuffix("-nodamp")
    method, sampler = _METHOD_TOKENS.get(core, (core, None))
    if method not in METHODS:
        raise ValueError(f"unknown method token {token!r}")
    if core != token and method not in methods_reading("damping"):
        raise ValueError(f"method token {token!r}: -nodamp applies only to "
                         f"{', '.join(methods_reading('damping'))} tokens")
    return replace(base, method=method, sampler=sampler or base.sampler,
                   damping=base.damping and core == token)


def cmd_generate(args):
    if not args.n or not args.N or not args.out:
        raise ValueError("generate needs --n, --N and --out FILE")
    print(harness.generate_instance(args.family, args.n, args.N, args.seed, args.out))
    return EXIT_OK


def cmd_run(args):
    spec = _from_flags(harness.ExperimentSpec, args)
    cfg = _from_flags(SolverConfig, args)
    cfg.validate()
    _refuse_unread(cfg.method, _given(args))
    problem = spec.build_problem()
    path, _ = harness.run_single(problem, cfg, cfg.seed, spec.out_dir)
    print(path)
    return EXIT_OK


def cmd_sweep(args):
    spec = _from_flags(harness.ExperimentSpec, args)
    base = _from_flags(SolverConfig, args)
    harness.check_grid("sweep-m", harness.sweep_configs(base, args.m_grid), args.seeds)
    _refuse_unread(base.method, [("m", "--m-grid"), *_given(args)])
    problem = spec.build_problem()
    _, agg = harness.sweep_m(problem, base, args.m_grid,
                             args.seeds, spec.out_dir, how=spec.aggregation)
    print(agg)
    return EXIT_OK


def cmd_compare(args):
    spec = _from_flags(harness.ExperimentSpec, args)
    base = _from_flags(SolverConfig, args)
    configs = [_method_config(tok, base) for tok in args.methods]
    harness.check_grid("compare", configs, args.seeds)
    problem = spec.build_problem()
    _, agg = harness.compare_methods(problem, configs, args.seeds, spec.out_dir,
                                     how=spec.aggregation)
    print(agg)
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "run": cmd_run,
    "sweep-m": cmd_sweep,
    "compare": cmd_compare,
}


def main(argv=None):
    parser, keyed = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(*keyed[args.command], args.config)
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    except DatasetFormatError as exc:
        print(f"specsum: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"specsum: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"specsum: numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"specsum: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

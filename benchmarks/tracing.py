"""Spans and counters recorded from outside the program.

`Tracer.install` replaces each traced function by a timing wrapper in
every `qhashlab` module namespace that bound it (so `keyset.bias_profile`
and `qhash.apply_single_qubit` are traced as well as the originals), and
`Tracer.uninstall` puts the originals back.  Spans are kept in memory as
``(span_id, parent_id, command_id, name, start, end)`` tuples and written
out once, at the end of the run.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# Traced functions per layer; a dotted name is a method of a class.
LAYER_FUNCTIONS = {
    "bias": ["bias_profile", "padded_delta_squared", "fourier_components",
             "hash_inner_product", "load_keyset", "save_keyset"],
    "keyset": ["ga_search", "sample_random_keyset"],
    "qsim": ["apply_single_qubit", "apply_controlled_single_qubit", "sample_outcomes",
             "measure_all", "swap_test", "dump_state", "load_state"],
    "qhash": ["hash_state", "build_hash_circuit", "simulate_circuit", "uncompute_hash",
              "reverse_test", "reverse_test_shots"],
    "signature": ["keygen", "verify", "forgery_experiment", "forgery_prediction"],
    "fingerprint": ["random_linear_code", "fingerprint_state", "fingerprint_inner_product",
                    "fingerprint_resistance", "LinearCode.min_distance"],
}
LAYERS = tuple(LAYER_FUNCTIONS)
CLI_COMMANDS = ("bias", "verify-tables", "search", "hash", "inner", "swap-test",
                "reverse-test", "circuit-check", "fingerprint", "sign", "verify",
                "forge-experiment")

# name -> (unit, better) for the counters derived from spans and hooks.
COUNTERS = {
    "bias.terms": ("count", "lower"),
    "bias.terms_per_s": ("1/s", "higher"),
    "bias.rescan_ratio": ("ratio", "lower"),
    "keyset.generations": ("count", "lower"),
    "keyset.generation_s.p50": ("s", "lower"),
    "keyset.generation_s.p90": ("s", "lower"),
    "keyset.evals": ("count", "lower"),
    "keyset.evals_per_s": ("1/s", "higher"),
    "keyset.random.attempts": ("count", "lower"),
    "keyset.random.success_ratio": ("ratio", "higher"),
    "qsim.gates": ("count", "lower"),
    "qsim.gates_per_s": ("1/s", "higher"),
    "qsim.shots": ("count", "lower"),
    "qsim.shots_per_s": ("1/s", "higher"),
    "qsim.dump_bytes": ("bytes", "lower"),
    "qhash.circuit_gates": ("count", "lower"),
    "signature.trials": ("count", "lower"),
    "signature.trial_us": ("us", "lower"),
    "signature.verify.accept_ratio": ("ratio", "higher"),
    "fingerprint.codewords_enumerated": ("count", "lower"),
}


def layer_metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run emits, with unit and direction."""
    specs: dict[str, tuple[str, str]] = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            specs[f"{layer}.{name}.calls"] = ("count", "lower")
            specs[f"{layer}.{name}.self_s"] = ("s", "lower")
        specs[f"{layer}.self_s"] = ("s", "lower")
    specs.update(COUNTERS)
    for command in CLI_COMMANDS:
        specs[f"cli.{command}.s"] = ("s", "lower")
    specs["cli.self_s"] = ("s", "lower")
    specs["trace.wall_s"] = ("s", "lower")
    specs["trace.overhead_s"] = ("s", "lower")
    specs["trace.attributed_ratio"] = ("ratio", "higher")
    return specs


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Record spans and counters for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._stack: list[int] = []
        self._next_id = 1
        self.command_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.generation_s: list[float] = []
        self._profiled: set[tuple[int, int, tuple[int, ...]]] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name; nested spans get it as parent."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self.command_id, name, start, end))

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is None:
                return self.span(name, fn, *args, **kwargs)
            return hook(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a qhashlab module bound it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "qhashlab" or key.startswith("qhashlab.")) and m is not None]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"qhashlab.{layer}"]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                original = getattr(owner, attr)
                traced = self._wrap(f"{layer}.{name}", original)
                if owner_name:
                    self._patch(owner, attr, traced)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start_command(self) -> None:
        self.command_id += 1
        self._profiled.clear()

    # -- counter hooks (called instead of a bare span) -----------------
    def _hook_bias_bias_profile(self, name, fn, args, kwargs):
        keyset = _arg(args, kwargs, 0, "keyset")
        key = (keyset.modulus, keyset.d, keyset.keys)
        self.counts["bias.profiles"] += 1
        self.counts["bias.repeats"] += key in self._profiled
        self._profiled.add(key)
        self.counts["bias.terms"] += keyset.modulus * keyset.d
        return self.span(name, fn, *args, **kwargs)

    def _hook_keyset_ga_search(self, name, fn, args, kwargs):
        from qhashlab.keyset import SearchConfig

        config = _arg(args, kwargs, 3, "config") or SearchConfig()
        user_progress = _arg(args, kwargs, 6, "progress")
        stamps: list[float] = []

        def progress(line: str) -> None:
            stamps.append(time.perf_counter())
            if user_progress is not None:
                user_progress(line)

        args, kwargs = args[:6], {**kwargs, "progress": progress}
        outcome = self.span(name, fn, *args, **kwargs)
        self.generation_s.extend(b - a for a, b in zip(stamps, stamps[1:]))
        gens = outcome.generations_used
        self.counts["keyset.generations"] += gens
        self.counts["keyset.evals"] += (config.population_size
                                        + gens * (config.population_size - config.elitism_count))
        return outcome

    def _hook_keyset_sample_random_keyset(self, name, fn, args, kwargs):
        outcome = self.span(name, fn, *args, **kwargs)
        self.counts["keyset.random.attempts"] += outcome.generations_used
        self.counts["keyset.random.successes"] += outcome.target_met
        return outcome

    def _hook_qsim_sample_outcomes(self, name, fn, args, kwargs):
        self.counts["qsim.shots"] += _arg(args, kwargs, 1, "shots")
        return self.span(name, fn, *args, **kwargs)

    def _hook_qsim_swap_test(self, name, fn, args, kwargs):
        self.counts["qsim.shots"] += _arg(args, kwargs, 2, "shots")
        return self.span(name, fn, *args, **kwargs)

    def _hook_qsim_dump_state(self, name, fn, args, kwargs):
        result = self.span(name, fn, *args, **kwargs)
        self.counts["qsim.dump_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
        return result

    def _hook_qhash_build_hash_circuit(self, name, fn, args, kwargs):
        circuit = self.span(name, fn, *args, **kwargs)
        self.counts["qhash.circuit_gates"] += len(circuit.gates)
        return circuit

    def _hook_signature_forgery_experiment(self, name, fn, args, kwargs):
        self.counts["signature.trials"] += _arg(args, kwargs, 1, "trials")
        return self.span(name, fn, *args, **kwargs)

    def _hook_signature_verify(self, name, fn, args, kwargs):
        accepted = self.span(name, fn, *args, **kwargs)
        self.counts["signature.verify.accepted"] += bool(accepted)
        return accepted

    def _enumerates(self, name, fn, args, kwargs):
        code = _arg(args, kwargs, 0, "code")
        self.counts["fingerprint.codewords_enumerated"] += (1 << code.n) - 1
        return self.span(name, fn, *args, **kwargs)

    _hook_fingerprint_fingerprint_resistance = _enumerates
    _hook_fingerprint_LinearCode_min_distance = _enumerates

    # -- reduction -----------------------------------------------------
    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write("span_id\tparent_id\tcommand_id\tname\tstart\tend\n")
            for span in self.spans:
                out.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % span)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, as totals per traced pass (ratios over all)."""
        child_s: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            child_s[parent] += end - start
        calls: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_s[span_id]
            total_s[name] += end - start

        out: dict[str, float] = {}
        for layer, names in LAYER_FUNCTIONS.items():
            layer_self = 0.0
            for fname in names:
                key = f"{layer}.{fname}"
                out[f"{key}.calls"] = calls[key] / passes
                out[f"{key}.self_s"] = self_s[key] / passes
                layer_self += self_s[key]
            out[f"{layer}.self_s"] = layer_self / passes
        cli_self = 0.0
        for command in CLI_COMMANDS:
            key = f"cli.{command}"
            out[f"{key}.s"] = total_s[key] / passes
            cli_self += self_s[key]
        out["cli.self_s"] = cli_self / passes

        c = self.counts
        out["bias.terms"] = c["bias.terms"] / passes
        out["bias.terms_per_s"] = _ratio(c["bias.terms"], total_s["bias.bias_profile"])
        out["bias.rescan_ratio"] = _ratio(c["bias.repeats"], c["bias.profiles"])
        out["keyset.generations"] = c["keyset.generations"] / passes
        out["keyset.generation_s.p50"] = quantile(self.generation_s, 0.5)
        out["keyset.generation_s.p90"] = quantile(self.generation_s, 0.9)
        out["keyset.evals"] = c["keyset.evals"] / passes
        out["keyset.evals_per_s"] = _ratio(c["keyset.evals"], total_s["keyset.ga_search"])
        out["keyset.random.attempts"] = c["keyset.random.attempts"] / passes
        out["keyset.random.success_ratio"] = _ratio(c["keyset.random.successes"],
                                                    c["keyset.random.attempts"])
        gates = calls["qsim.apply_single_qubit"] + calls["qsim.apply_controlled_single_qubit"]
        out["qsim.gates"] = gates / passes
        out["qsim.gates_per_s"] = _ratio(gates, total_s["qsim.apply_single_qubit"]
                                         + total_s["qsim.apply_controlled_single_qubit"])
        out["qsim.shots"] = c["qsim.shots"] / passes
        out["qsim.shots_per_s"] = _ratio(c["qsim.shots"], total_s["qsim.sample_outcomes"]
                                         + total_s["qsim.swap_test"])
        out["qsim.dump_bytes"] = c["qsim.dump_bytes"] / passes
        out["qhash.circuit_gates"] = c["qhash.circuit_gates"] / passes
        out["signature.trials"] = c["signature.trials"] / passes
        out["signature.trial_us"] = 1e6 * _ratio(total_s["signature.forgery_experiment"],
                                                 c["signature.trials"])
        out["signature.verify.accept_ratio"] = _ratio(c["signature.verify.accepted"],
                                                      calls["signature.verify"])
        out["fingerprint.codewords_enumerated"] = c["fingerprint.codewords_enumerated"] / passes
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)

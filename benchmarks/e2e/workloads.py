"""The four end-to-end workloads, from test campaign to verdict.

Each workload runs in four steps, so that a fresh child process can time
what a user's invocation pays for:

* ``prepare(seed, workdir)`` makes the inputs from the seed, untimed.
  Only ``host-check`` writes files: the two campaign dumps it reads.
* ``setup(inputs)`` builds what the public API needs before work starts.
* ``op(state, inputs, span)`` is the timed work.  It goes through the
  library's public entry points with their defaults and returns plain
  JSON outputs.  ``span(name)`` is a context manager for grouping spans
  in a traced run; it does nothing otherwise.
* ``verify(outputs, pin)`` lists what is wrong with the outputs: broken
  invariants on every seed, plus mismatches against ``pin`` (the
  recorded outputs of the pinned seed) when one is given.

Sizes are constructor arguments, so the tests run the same code small.
The tested programs are fixed per workload; ``--seed`` selects the
executor seeds, so every seed runs the same amount of work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time

import repro.harness as harness
from repro import io as repro_io
from repro.harness import Campaign
from repro.mutate import SensitivityCampaign, get_mutation
from repro.testgen import paper_config
from spans import no_span


def digest(obj) -> str:
    """Short stable hash of a JSON-able object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def multiset_digest(result) -> str:
    """Hash of a campaign's signature multiset (words and counts)."""
    return digest(sorted([signature.words, count]
                         for signature, count in result.signature_counts.items()))


def _check_outputs(outcome) -> dict:
    collective, baseline = outcome.collective, outcome.baseline
    return {
        "violations": len(collective.violations),
        "baseline_violations": len(baseline.violations),
        "verdicts_agree": [v.violation for v in collective.verdicts]
        == [v.violation for v in baseline.verdicts],
    }


def _clean_problems(out: dict, where: str = "") -> list:
    """Invariants of a campaign on an unmutated machine."""
    problems = []
    if out["violations"] or out["baseline_violations"]:
        problems.append("%sclean machine reported violations (%d collective, "
                        "%d baseline)" % (where, out["violations"],
                                          out["baseline_violations"]))
    if not out["verdicts_agree"]:
        problems.append("%scollective and baseline verdicts differ" % where)
    return problems


def _pin_problems(outputs: dict, pin: dict, keys) -> list:
    return ["%s is %r, pinned %r" % (key, outputs.get(key), pin.get(key))
            for key in keys if outputs.get(key) != pin.get(key)]


class CampaignWorkload:
    """``Campaign(config)`` -> ``.run(iterations)`` -> ``.check(result)``."""

    #: outputs that must repeat exactly for the pinned seed
    PIN_KEYS = ("iterations", "unique", "signature_digest", "base_cycles",
                "instrumentation_cycles", "test_accesses", "extra_accesses",
                "crashes")

    def __init__(self, config: str, iterations: int):
        self.config = config
        self.iterations = iterations

    def prepare(self, seed: int, workdir: str) -> dict:
        return {"seed": seed}

    def setup(self, inputs: dict):
        return Campaign(config=paper_config(self.config), seed=inputs["seed"])

    def op(self, campaign, inputs: dict, span=no_span) -> dict:
        result = campaign.run(self.iterations)
        start = time.perf_counter()
        outcome = campaign.check(result)
        check_s = time.perf_counter() - start
        return {
            "iterations": result.iterations,
            "unique": result.unique_signatures,
            "signature_digest": multiset_digest(result),
            "base_cycles": result.base_cycles,
            "instrumentation_cycles": result.instrumentation_cycles,
            "sim_cycles": result.base_cycles + result.instrumentation_cycles,
            "test_accesses": result.test_accesses,
            "extra_accesses": result.extra_accesses,
            "crashes": result.crashes,
            "signature_asserts": result.signature_asserts,
            "check_s": check_s,
            **_check_outputs(outcome),
        }

    def pin_view(self, outputs: dict) -> dict:
        return {key: outputs[key] for key in self.PIN_KEYS}

    def verify(self, outputs: dict, pin: dict = None) -> list:
        problems = _clean_problems(outputs)
        if outputs["iterations"] != self.iterations:
            problems.append("ran %d of %d iterations"
                            % (outputs["iterations"], self.iterations))
        if outputs["crashes"] or outputs["signature_asserts"]:
            problems.append("clean machine crashed or fired asserts")
        if pin is not None:
            problems += _pin_problems(outputs, pin, self.PIN_KEYS)
        return problems

    def extras(self, outputs: dict, op_s: float) -> dict:
        return {"check_sigs_per_s": (outputs["unique"] / outputs["check_s"],
                                     "1/s")}


class HostCheckWorkload:
    """``io.read_campaign`` + ``check_campaign_result`` on campaign dumps.

    ``dumps`` is a list of ``(label, paper config, iterations)``; each
    dump is generated untimed from the seed in :meth:`prepare`.
    """

    def __init__(self, dumps):
        self.dumps = tuple(dumps)

    def prepare(self, seed: int, workdir: str) -> dict:
        paths = {}
        for label, config, iterations in self.dumps:
            result = Campaign(config=paper_config(config), seed=seed).run(
                iterations)
            path = os.path.join(workdir, "%s-seed%d.json" % (label, seed))
            repro_io.save_campaign(result, path)
            paths[label] = path
        return {"seed": seed, "dumps": paths}

    def setup(self, inputs: dict):
        return None

    def op(self, state, inputs: dict, span=no_span) -> dict:
        out = {"iterations": 0, "unique": 0, "dumps": {}}
        for label, path in inputs["dumps"].items():
            with span("dump." + label):
                result = repro_io.read_campaign(path)
                outcome = harness.check_campaign_result(result)
            dump = {
                "iterations": result.iterations,
                "unique": result.unique_signatures,
                "summary_digest": digest(outcome.collective.summary()),
                "baseline_digest": digest(
                    [v.violation for v in outcome.baseline.verdicts]),
                **_check_outputs(outcome),
            }
            out["dumps"][label] = dump
            out["iterations"] += dump["iterations"]
            out["unique"] += dump["unique"]
        return out

    def alternates(self, inputs: dict, span=no_span) -> None:
        """The off-path pipelines on the same dumps (traced runs only)."""
        for label, path in inputs["dumps"].items():
            result = repro_io.read_campaign(path)
            for pipeline in ("packed", "poly"):
                with span("%s.%s" % (label, pipeline)):
                    try:
                        harness.check_campaign_result(
                            result, baseline=False, pipeline=pipeline)
                    except ValueError:  # pipeline no longer exists
                        pass

    def pin_view(self, outputs: dict) -> dict:
        return {label: {key: dump[key] for key in
                        ("iterations", "unique", "summary_digest",
                         "baseline_digest")}
                for label, dump in outputs["dumps"].items()}

    def verify(self, outputs: dict, pin: dict = None) -> list:
        problems = []
        for label, dump in outputs["dumps"].items():
            problems += _clean_problems(dump, label + ": ")
        if pin is not None:
            view = self.pin_view(outputs)
            for label in sorted(set(pin) | set(view)):
                problems += ["%s: %s" % (label, p) for p in _pin_problems(
                    view.get(label, {}), pin.get(label, {}),
                    sorted(pin.get(label, {})))]
        return problems

    def extras(self, outputs: dict, op_s: float) -> dict:
        return {"check_sigs_per_s": (outputs["unique"] / op_s, "1/s")}


class HuntWorkload:
    """``SensitivityCampaign(mutation, control=False).run()``.

    Hunts ``seeds`` executor seeds per op, each for at most ``budget``
    iterations, re-checking after every ``chunk`` iterations (default:
    the mutation's registered spec); the block for ``--seed`` starts at
    ``seed * seeds`` so that distinct seeds hunt disjoint sets.
    """

    def __init__(self, mutation: str, seeds: int, budget: int = None,
                 chunk: int = None):
        self.mutation = mutation
        self.seeds = seeds
        self.budget = budget
        self.chunk = chunk

    def prepare(self, seed: int, workdir: str) -> dict:
        return {"base_seed": seed * self.seeds}

    def setup(self, inputs: dict):
        mutation = get_mutation(self.mutation)
        if self.chunk is not None:
            mutation = dataclasses.replace(mutation, spec=dataclasses.replace(
                mutation.spec, chunk=self.chunk))
        return SensitivityCampaign(mutation, control=False,
                                   base_seed=inputs["base_seed"],
                                   seeds=self.seeds, budget=self.budget)

    def op(self, hunt, inputs: dict, span=no_span) -> dict:
        outcome = hunt.run()
        seeds = [{"seed": s.seed, "detected": s.detected,
                  "channel": s.channel,
                  "executions_to_detection": s.executions_to_detection,
                  "violations": s.violations,
                  "unique_signatures": s.unique_signatures}
                 for s in outcome.seeds]
        return {"iterations": sum(s.iterations for s in outcome.seeds),
                "unique": sum(s.unique_signatures for s in outcome.seeds),
                "budget": hunt.budget, "seeds": seeds}

    def pin_view(self, outputs: dict) -> dict:
        return {"seeds": outputs["seeds"]}

    def verify(self, outputs: dict, pin: dict = None) -> list:
        problems = []
        if len(outputs["seeds"]) != self.seeds:
            problems.append("hunted %d of %d seeds"
                            % (len(outputs["seeds"]), self.seeds))
        for s in outputs["seeds"]:
            if not s["detected"] or s["channel"] != "violation" \
                    or s["violations"] < 1:
                problems.append("seed %d: no violation detected within the "
                                "%d-iteration budget" % (s["seed"],
                                                         outputs["budget"]))
        if pin is not None and outputs["seeds"] != pin["seeds"]:
            problems.append("per-seed detections %r, pinned %r"
                            % (outputs["seeds"], pin["seeds"]))
        return problems

    def extras(self, outputs: dict, op_s: float) -> dict:
        return {"detect_s": (op_s, "s")}


#: workload name -> instance at benchmark size (BENCHMARK.json lists why)
WORKLOADS = {
    "arm4-campaign": CampaignWorkload("ARM-4-100-64", 500),
    "x86-dedup-campaign": CampaignWorkload("x86-2-100-32", 3000),
    "host-check": HostCheckWorkload((("arm4", "ARM-4-100-64", 1000),
                                     ("arm7", "ARM-7-200-64", 200))),
    # bug 1 rather than bug 2 (gem5-lsq-squash), which misses its budget
    # on some executor seeds; re-checking every 128 iterations instead of
    # 64 keeps nearly every seed to one chunk, so peak RSS does not
    # double on the seeds that need a second one (see README.md)
    "gem5-hunt": HuntWorkload("gem5-protocol-squash", 2, budget=512,
                              chunk=128),
}

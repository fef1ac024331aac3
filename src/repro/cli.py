"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's flow so each stage can run standalone:

* ``generate`` — emit a constrained-random test program (assembler text),
* ``instrument`` — show the instrumented pseudo-assembly and its static
  metrics (signature size, code size, intrusiveness),
* ``run`` — execute a test for N iterations on a simulated platform and
  dump the collected signatures to JSON (the device side); ``--jobs N``
  shards the iterations over N worker processes,
* ``check`` — load a signature dump, decode, build graphs, and run the
  collective checker (the host side); ``--check-pipeline`` selects the
  streaming ``delta`` pipeline (default), the array-compiled ``packed``
  pipeline, the frontier-closure ``poly`` family or the legacy
  ``graphs`` path (``run`` and ``suite`` accept
  the same switch for their checking stage; the choices come from the
  :data:`repro.checker.PIPELINES` registry),
* ``suite`` — run a multi-test suite (the paper's per-configuration
  campaign), optionally sharded over ``--jobs`` workers,
* ``merge`` — union saved campaign shard dumps into one dump (the host
  side of a manually distributed campaign),
* ``litmus`` — run the litmus library against a memory model,
* ``lint`` — statically lint test programs and verify their
  instrumentation without running a single iteration; ``--fail-on``
  selects the severity that flips the exit code to 1,
* ``feasible`` — statically enumerate the architecturally feasible
  outcome set of a program (``--list-outcomes``), measure how much of
  it a real run observes (``--coverage``), or print the reference doc
  (``--doc``, docs/FEASIBLE.md),
* ``stats`` — render (and validate) a saved observability run report,
* ``mutate`` — checker-sensitivity campaigns: list the fault-injection
  registry (``--list``) or run detection campaigns (all operational
  mutations by default, ``--detailed`` to add the gem5 bugs,
  ``--mutation NAME`` to select); exits 1 when any selected mutation
  goes undetected within its budget,
* ``serve`` — run the streaming checking-as-a-service daemon (sessions,
  cross-client signature dedup, bounded-queue backpressure, graceful
  SIGTERM drain),
* ``submit`` — stream a saved signature dump into a running daemon and
  print its final report.

``run`` also accepts ``--mutation NAME`` to arm a registered mutation's
fault plane (or detailed-simulator bug) on the campaign being run.

``run`` and ``suite`` accept ``--lint {off,skip,fail}`` to gate every
campaign on the same analyses (skip statically wasted iterations, or
abort on lint errors).

``run``, ``check`` and ``mutate`` accept ``--cross-check feasible``
to corroborate the constraint-graph checker against the independent
feasibility oracle (:mod:`repro.feasible`), which decides each observed
signature exactly — decode, derive the ordering facts, one acyclicity
test — and enumerates the static feasible set for coverage.  A
signature the oracle rejects but the checker passed is a hardware bug;
an oracle/checker disagreement flips ``run``/``check`` to exit 1, and
an oracle rejection fires the ``mutate`` ``feasible`` detection
channel.

``run``, ``check`` and ``litmus`` accept ``--metrics-out PATH`` to write
a schema-versioned run report (metrics registry snapshot + phase span
tree); ``run`` and ``check`` additionally accept ``--json`` to print the
same report structure to stdout instead of the text summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import io as repro_io
from repro import obs as repro_obs
from repro.errors import ReproError
from repro.checker import CROSS_CHECKS, PIPELINES, describe_cycle
from repro.harness import Campaign, SuiteRunner, check_campaign_result, format_table
from repro.feasible import DEFAULT_BUDGET, DEFAULT_SAMPLES, cross_check_outcome
from repro.instrument import SignatureCodec, code_size, emit_listing, intrusiveness
from repro.isa.assembler import assemble, disassemble
from repro.mcm import get_model
from repro.sim import OperationalExecutor, model_for_register_width
from repro.sim.faults import Bug, FaultConfig
from repro.testgen import TestConfig, generate
from repro.testgen.litmus import all_litmus_tests, extended_litmus_tests


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--isa", choices=("x86", "arm"), default="arm")
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--ops", type=int, default=50)
    parser.add_argument("--addresses", type=int, default=32)
    parser.add_argument("--words-per-line", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)


def _config_from(args) -> TestConfig:
    return TestConfig(isa=args.isa, threads=args.threads, ops_per_thread=args.ops,
                      addresses=args.addresses, words_per_line=args.words_per_line,
                      seed=args.seed)


def _metrics_wanted(args) -> bool:
    return bool(getattr(args, "metrics_out", None)
                or getattr(args, "json", False)
                or getattr(args, "trace_out", None)
                or getattr(args, "events_out", None))


def _progress_renderer(stream=None):
    """A throttled ``on_beat`` callback drawing one live status line."""
    import time as _time

    from repro.fleet.progress import render_progress_line

    stream = stream or sys.stderr
    last = [float("-inf")]

    def on_beat(snap):
        now = _time.monotonic()
        if (snap.iterations_done < snap.iterations_total
                and now - last[0] < 0.1):
            return
        last[0] = now
        stream.write("\r" + render_progress_line(snap))
        stream.flush()

    return on_beat


def _emit_telemetry(args, handle, report):
    """Write the --events-out / --trace-out artifacts of one run."""
    if handle is None:
        return
    quiet = getattr(args, "json", False)
    if getattr(args, "events_out", None):
        handle.events.write_jsonl(args.events_out)
        if not quiet:
            print("event log written to %s" % args.events_out)
    if getattr(args, "trace_out", None):
        from repro.obs.traceviz import build_trace, write_trace

        trace = build_trace(report=report, events=handle.events.events(),
                            meta={"command": getattr(args, "command", "run")})
        write_trace(trace, args.trace_out)
        if not quiet:
            print("trace written to %s (load in ui.perfetto.dev)"
                  % args.trace_out)


def _emit_report(args, handle, meta: dict, summary: dict):
    """Build the run report; write/print it as requested.  None if disabled."""
    if handle is None:
        return None
    report = repro_obs.build_run_report(handle, meta=meta, summary=summary)
    if getattr(args, "metrics_out", None):
        repro_obs.write_report(report, args.metrics_out)
        if not getattr(args, "json", False):
            print("run report written to %s" % args.metrics_out)
    if getattr(args, "json", False):
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return report


def _cmd_generate(args) -> int:
    program = generate(_config_from(args))
    sys.stdout.write(disassemble(program))
    return 0


def _cmd_instrument(args) -> int:
    config = _config_from(args)
    program = generate(config)
    codec = SignatureCodec(program, config.register_width)
    if args.listing:
        sys.stdout.write(emit_listing(program, codec))
    cs = code_size(program, codec, config.isa)
    report = intrusiveness(program, codec)
    print(format_table(
        ["metric", "value"],
        [
            ["signature bytes", codec.byte_size],
            ["signature words", codec.total_words],
            ["cardinality bits", codec.cardinality.bit_length()],
            ["original code bytes", cs.original_bytes],
            ["instrumented code bytes", cs.instrumented_bytes],
            ["code size ratio", "%.2f" % cs.ratio],
            ["accesses vs register flushing", "%.1f%%" % (100 * report.normalized)],
        ],
        title="instrumentation metrics (%s)" % config.name))
    return 0


def _cmd_run(args) -> int:
    config = _config_from(args)
    if (args.detailed or args.bug) and config.isa != "x86":
        raise ValueError("the detailed MESI simulator models x86 only; "
                         "use --isa x86 with --detailed/--bug")
    if args.mutation and (args.detailed or args.bug):
        raise ValueError("--mutation picks its own executor; it cannot be "
                         "combined with --detailed/--bug")
    if args.os and (args.detailed or args.bug):
        raise ValueError("the detailed MESI simulator has no OS model; "
                         "--os cannot be combined with --detailed/--bug")
    faults = None
    if args.detailed or args.bug:
        faults = FaultConfig(bug=Bug(args.bug) if args.bug else None,
                             l1_lines=args.l1_lines)
    # enable before the Campaign is built so the generate/instrument
    # phases land in the span tree
    handle = repro_obs.enable() if _metrics_wanted(args) else None
    if args.progress and args.jobs <= 1:
        print("--progress shows live fleet heartbeats; it needs --jobs > 1",
              file=sys.stderr)
    if args.jobs > 1:
        from repro.fleet import run_campaign_fleet

        on_beat = _progress_renderer() if args.progress else None
        result = run_campaign_fleet(
            config=config, iterations=args.iterations, jobs=args.jobs,
            seed=args.run_seed, block=args.block, os_model=args.os,
            faults=faults, lint=args.lint, mutation=args.mutation,
            on_beat=on_beat)
        if on_beat is not None:
            sys.stderr.write("\n")
        model = None  # register-width convention, same as the checker's
        checker = lambda: check_campaign_result(result,
                                                pipeline=args.pipeline)
    else:
        campaign = Campaign(config=config, seed=args.run_seed,
                            os_model=args.os, faults=faults,
                            mutation=args.mutation)
        result = campaign.run(args.iterations, block=args.block,
                              lint=args.lint)
        model = campaign.model
        checker = lambda: campaign.check(result, pipeline=args.pipeline)
    summary = {"config": config.name, "iterations": result.iterations,
               "unique_signatures": result.unique_signatures,
               "crashes": result.crashes, "jobs": args.jobs,
               "skipped_iterations": result.skipped_iterations,
               "signature_asserts": result.signature_asserts}
    exit_code = 0
    if handle is not None or args.cross_check:
        # complete the pipeline so the report's span tree covers all four
        # phases and carries the checker counters for this very run
        outcome = checker()
        summary["violations"] = len(outcome.collective.violations)
        if args.cross_check:
            xc = cross_check_outcome(result, outcome, model)
            summary["cross_check"] = xc.summary_json()
            if not args.json:
                print(xc.render())
            if not xc.agreement:
                exit_code = 1
    if not args.json:
        skipped = (", %d statically skipped" % result.skipped_iterations
                   if result.skipped_iterations else "")
        asserts = (", %d signature asserts" % result.signature_asserts
                   if result.signature_asserts else "")
        print("%s: %d iterations, %d unique signatures, %d crashes%s%s"
              % (config.name, result.iterations, result.unique_signatures,
                 result.crashes, asserts, skipped))
    if args.output:
        repro_io.save_campaign(result, args.output)
        if not args.json:
            print("signatures written to %s" % args.output)
    report = _emit_report(args, handle,
                          meta={"command": "run", "config": config.name,
                                "isa": config.isa, "seed": args.seed,
                                "run_seed": args.run_seed,
                                "jobs": args.jobs},
                          summary=summary)
    _emit_telemetry(args, handle, report)
    return exit_code


def _cmd_check(args) -> int:
    handle = repro_obs.enable() if _metrics_wanted(args) else None
    result = repro_io.read_campaign(args.dump)
    config_model = get_model(args.model) if args.model else \
        model_for_register_width(result.codec.register_width)
    outcome = check_campaign_result(result, config_model, ws_mode=args.ws_mode,
                                    baseline=False,
                                    pipeline=args.pipeline)
    report = outcome.collective
    if not args.json:
        print("checked %d unique executions under %s (%s ws): %d violations"
              % (report.num_graphs, config_model.name, args.ws_mode,
                 len(report.violations)))
        for verdict in report.violations:
            print()
            print(describe_cycle(result.program, outcome.graph_at(verdict.index),
                                 verdict.cycle))
    summary = {"unique_executions": report.num_graphs,
               "violations": len(report.violations)}
    xc = None
    if args.cross_check:
        xc = cross_check_outcome(result, outcome, config_model)
        summary["cross_check"] = xc.summary_json()
        if not args.json:
            print(xc.render())
    _emit_report(args, handle,
                 meta={"command": "check", "dump": args.dump,
                       "model": config_model.name, "ws_mode": args.ws_mode},
                 summary=summary)
    if xc is not None and not xc.agreement:
        return 1
    return 1 if report.violations else 0


def _cmd_suite(args) -> int:
    config = _config_from(args)
    handle = repro_obs.enable() if _metrics_wanted(args) else None
    runner = SuiteRunner(config, tests=args.tests, iterations=args.iterations,
                         jobs=args.jobs, os_model=args.os,
                         lint=args.lint, pipeline=args.pipeline)
    stats = runner.run(seed=args.run_seed)
    rows = [
        ["tests", stats.tests],
        ["iterations per test", stats.iterations_per_test],
        ["jobs", args.jobs],
        ["mean unique signatures", "%.1f" % stats.mean_unique],
        ["violating signatures", stats.violating_signatures],
        ["tests with violations", stats.tests_with_violations],
        ["crashes", stats.crashes],
        ["lint-skipped tests", stats.skipped_tests],
        ["lint-skipped iterations", stats.skipped_iterations],
        ["checking reduction", "%.1f%%" % (100 * stats.checking_reduction)],
    ]
    summary = {"config": config.name, "tests": stats.tests,
               "iterations_per_test": stats.iterations_per_test,
               "jobs": args.jobs, "mean_unique": stats.mean_unique,
               "violating_signatures": stats.violating_signatures,
               "crashes": stats.crashes,
               "skipped_tests": stats.skipped_tests,
               "skipped_iterations": stats.skipped_iterations}
    if not getattr(args, "json", False):
        print(format_table(["metric", "value"], rows,
                           title="suite results (%s)" % config.name))
    _emit_report(args, handle,
                 meta={"command": "suite", "config": config.name,
                       "isa": config.isa, "seed": args.seed,
                       "run_seed": args.run_seed, "jobs": args.jobs},
                 summary=summary)
    return 1 if stats.violating_signatures else 0


def _cmd_merge(args) -> int:
    from repro.fleet import merge_campaign_results

    results = [repro_io.read_campaign(path) for path in args.shards]
    merged = merge_campaign_results(results)
    repro_io.save_campaign(merged, args.output)
    print("merged %d shard dumps: %d iterations, %d unique signatures, "
          "%d crashes -> %s"
          % (len(results), merged.iterations, merged.unique_signatures,
             merged.crashes, args.output))
    return 0


def _cmd_litmus(args) -> int:
    handle = repro_obs.enable() if _metrics_wanted(args) else None
    model = get_model(args.model)
    tests = all_litmus_tests() + (extended_litmus_tests() if args.extended else [])
    rows = []
    failures = 0
    obs = repro_obs.get_obs()
    with obs.span("litmus"):
        for lt in tests:
            executor = OperationalExecutor(lt.program, model, seed=args.run_seed)
            seen = False
            for execution in executor.run(args.iterations):
                hit = all(execution.rf.get(k) == v
                          for k, v in lt.interesting_rf.items())
                if hit and lt.interesting_ws is not None:
                    hit = all(execution.ws.get(a) == c
                              for a, c in lt.interesting_ws.items())
                if hit:
                    seen = True
                    break
            allowed = lt.allowed[model.name]
            ok = allowed or not seen
            if not ok:
                failures += 1
            rows.append([lt.name, "allowed" if allowed else "forbidden",
                         "seen" if seen else "never", "ok" if ok else "VIOLATION"])
    if handle is not None:
        handle.metrics.counter("litmus.tests").inc(len(tests))
        handle.metrics.counter("litmus.failures").inc(failures)
    print(format_table(["test", "model verdict", "observed", "status"], rows,
                       title="litmus run under %s (%d iterations)"
                             % (model.name, args.iterations)))
    _emit_report(args, handle,
                 meta={"command": "litmus", "model": model.name,
                       "iterations": args.iterations},
                 summary={"tests": len(tests), "failures": failures})
    return 1 if failures else 0


def _lint_targets(args):
    """Yield ``(program, config)`` pairs the lint command should analyze."""
    if args.input:
        with open(args.input) as handle:
            yield assemble(handle.read(), name=args.input), None
        return
    if args.litmus:
        for lt in all_litmus_tests():
            yield lt.program, None
        return
    config = _config_from(args)
    from repro.testgen import generate_suite

    for program in generate_suite(config, args.tests):
        yield program, config


def _cmd_lint(args) -> int:
    from repro.lint import (
        LintConfig,
        all_rules,
        fail_on_severity,
        lint_program,
        rules_markdown,
        rules_table,
    )

    if args.rules:
        print(rules_markdown() if args.markdown else rules_table())
        return 0
    # --json here selects the lint JSON document, not the obs report
    handle = repro_obs.enable() if getattr(args, "metrics_out", None) else None
    threshold = fail_on_severity(args.fail_on)
    lint_config = LintConfig(exhaustive_limit=args.exhaustive_limit,
                             samples=args.samples, seed=args.lint_seed)
    reports = []
    failing = 0
    for program, config in _lint_targets(args):
        report = lint_program(program, config=config, lint_config=lint_config)
        reports.append(report)
        if threshold is not None and report.at_least(threshold):
            failing += 1
        if not args.json:
            if report.findings or args.verbose:
                print(report.render())
    zero_entropy = sum(1 for r in reports if r.zero_entropy)
    if args.json:
        # same schema header every other JSON-emitting subcommand carries
        json.dump({"schema": "repro.lint", "version": 1,
                   "rules": len(all_rules()),
                   "programs": len(reports), "failing": failing,
                   "fail_on": args.fail_on, "zero_entropy": zero_entropy,
                   "reports": [r.to_json() for r in reports]},
                  sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        findings = sum(len(r.findings) for r in reports)
        errors = sum(len(r.errors) for r in reports)
        print("linted %d program%s: %d findings (%d errors), "
              "%d zero-entropy, %d failing at --fail-on %s"
              % (len(reports), "s" if len(reports) != 1 else "", findings,
                 errors, zero_entropy, failing, args.fail_on))
    if handle is not None:
        report = repro_obs.build_run_report(
            handle, meta={"command": "lint", "fail_on": args.fail_on},
            summary={"programs": len(reports), "failing": failing,
                     "zero_entropy": zero_entropy})
        repro_obs.write_report(report, args.metrics_out)
        if not args.json:
            print("run report written to %s" % args.metrics_out)
    return 1 if failing else 0


def _cmd_mutate(args) -> int:
    from repro.mutate import all_mutations, get_mutation, operational_mutations
    from repro.mutate.campaign import run_sensitivity_suite

    if args.list:
        rows = [[m.name, m.executor, m.fault_class, m.trigger.describe(),
                 m.spec.config.name, m.spec.budget, m.spec.seeds]
                for m in all_mutations()]
        print(format_table(
            ["mutation", "executor", "class", "trigger", "config", "budget",
             "seeds"], rows,
            title="fault-injection registry (%d mutations)" % len(rows)))
        return 0
    if args.mutation:
        selected = [get_mutation(name) for name in args.mutation]
    else:
        selected = all_mutations() if args.detailed else \
            operational_mutations()
    # --json here selects the sensitivity JSON document, not the obs report
    handle = repro_obs.enable() if getattr(args, "metrics_out", None) else None
    outcomes = run_sensitivity_suite(
        selected, base_seed=args.base_seed, budget=args.budget,
        seeds=args.seeds, jobs=args.jobs, control=not args.no_control,
        cross_check=args.cross_check)
    undetected = [o.mutation.name for o in outcomes if not o.detected]
    if args.json:
        json.dump({"mutations": [o.to_json() for o in outcomes],
                   "undetected": undetected},
                  sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        rows = []
        for o in outcomes:
            diversity = "-"
            if o.clean_unique_signatures is not None:
                mutated = max(s.unique_signatures for s in o.seeds)
                diversity = "%d vs %d clean" % (mutated,
                                                o.clean_unique_signatures)
            rows.append([o.mutation.name,
                         "yes" if o.detected else "NO",
                         "%.2f" % o.detection_rate,
                         o.max_executions_to_detection
                         if o.max_executions_to_detection is not None else "-",
                         ",".join(o.channels) or "-", diversity])
        print(format_table(
            ["mutation", "detected", "rate", "execs-to-detect", "channels",
             "unique signatures"], rows,
            title="checker-sensitivity campaign (%d mutations)"
                  % len(outcomes)))
        if undetected:
            print("UNDETECTED: %s" % ", ".join(undetected))
    if handle is not None:
        report = repro_obs.build_run_report(
            handle,
            meta={"command": "mutate",
                  "mutations": [o.mutation.name for o in outcomes]},
            summary={"mutations": len(outcomes),
                     "undetected": len(undetected)})
        repro_obs.write_report(report, args.metrics_out)
        if not args.json:
            print("run report written to %s" % args.metrics_out)
    return 1 if undetected else 0


def _render_rf(rf: dict) -> str:
    """One decoded outcome as ``opL<-opS`` / ``opL<-init`` pairs."""
    parts = []
    for load in sorted(rf):
        src = rf[load]
        parts.append("op%d<-%s" % (load, "init" if isinstance(src, tuple)
                                   else "op%d" % src))
    return " ".join(parts)


def _cmd_feasible(args) -> int:
    from repro.feasible import FeasibilityOracle, enumerate_feasible
    from repro.feasible.doc import feasible_markdown

    if args.doc:
        print(feasible_markdown())
        return 0
    handle = repro_obs.enable() if getattr(args, "metrics_out", None) else None
    docs = []
    out_of_set_total = 0
    for program, config in _lint_targets(args):
        register_width = config.register_width if config is not None else 32
        codec = SignatureCodec(program, register_width)
        if args.model:
            model = get_model(args.model)
        elif config is not None:
            model = get_model(config.memory_model_name)
        else:
            model = get_model("tso")
        fset = enumerate_feasible(program, model, codec=codec,
                                  budget=args.budget, samples=args.samples,
                                  seed=args.feasible_seed)
        doc = fset.to_json()
        if not args.json:
            title = program.name or "program"
            if fset.exhaustive:
                print("%s under %s: %d of %d encodable signatures feasible "
                      "(%d prefixes explored, pruning %.2fx)"
                      % (title, model.name, fset.feasible_count,
                         fset.cardinality, fset.prefixes_explored,
                         fset.pruning_factor))
            else:
                print("%s under %s: sampled %d assignments, %d feasible "
                      "(space ~2^%d exceeds budget %d)"
                      % (title, model.name, fset.sampled,
                         fset.feasible_count, fset.cardinality.bit_length(),
                         args.budget))
        if args.list_outcomes:
            sigs = fset.sorted_signatures()
            if args.json:
                doc["signatures"] = [str(s) for s in sigs]
            else:
                for sig in sigs:
                    print("  %s  %s" % (sig, _render_rf(codec.decode(sig))))
        if args.coverage:
            executor = OperationalExecutor(program, model,
                                           seed=args.run_seed)
            observed = {codec.encode(execution.rf)
                        for execution in executor.run(args.iterations)}
            oracle = FeasibilityOracle(program, model)
            out_of_set = sum(
                1 for sig in sorted(observed)
                if not oracle.is_feasible(codec.decode(sig)))
            out_of_set_total += out_of_set
            hits = len(observed) - out_of_set
            doc["observed"] = len(observed)
            doc["out_of_set"] = out_of_set
            doc["coverage"] = (round(hits / fset.feasible_count, 4)
                               if fset.exhaustive and fset.feasible_count
                               else None)
            if handle is not None:
                handle.metrics.gauge("feasible.coverage.observed").set(hits)
                handle.metrics.gauge("feasible.coverage.feasible").set(
                    fset.feasible_count)
                if doc["coverage"] is not None:
                    handle.metrics.gauge("feasible.coverage.ratio").set(
                        doc["coverage"])
            if not args.json:
                denom = ("%d" % fset.feasible_count if fset.exhaustive
                         else "~%d sampled" % fset.feasible_count)
                line = ("  coverage: %d/%s feasible outcomes observed in "
                        "%d iterations" % (hits, denom, args.iterations))
                if out_of_set:
                    line += ", %d OUT OF FEASIBLE SET" % out_of_set
                print(line)
        docs.append(doc)
    if args.json:
        json.dump({"schema": "repro.feasible", "version": 1,
                   "programs": docs, "out_of_set": out_of_set_total},
                  sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    if handle is not None:
        report = repro_obs.build_run_report(
            handle, meta={"command": "feasible"},
            summary={"programs": len(docs),
                     "out_of_set": out_of_set_total})
        repro_obs.write_report(report, args.metrics_out)
        if not args.json:
            print("run report written to %s" % args.metrics_out)
    return 1 if out_of_set_total else 0


def _parse_address(text: str) -> tuple:
    """Split ``HOST:PORT`` (the daemon address ``submit`` takes)."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError("expected HOST:PORT, got %r" % text)
    return host or "127.0.0.1", int(port)


def _cmd_serve(args) -> int:
    from repro.serve.daemon import ServeConfig, serve_forever
    from repro.serve.protocol import protocol_markdown

    if args.protocol_doc:
        print(protocol_markdown())
        return 0
    handle = repro_obs.enable() if _metrics_wanted(args) else None
    progress = on_beat = None
    if args.progress:
        from repro.fleet.progress import FleetProgress

        progress = FleetProgress()
        on_beat = _progress_renderer()
    config = ServeConfig(host=args.host, port=args.port,
                         queue_depth=args.queue_depth,
                         max_batch=args.max_batch,
                         port_file=args.port_file,
                         report_out=args.report_out,
                         dedup_path=args.dedup)

    def ready(daemon):
        print("serving on %s:%d (SIGTERM drains)"
              % (config.host, daemon.port), file=sys.stderr)

    daemon = serve_forever(config, progress=progress, on_beat=on_beat,
                           ready=ready)
    if on_beat is not None:
        sys.stderr.write("\n")
    sessions = len(daemon.reports)
    print("drained: %d session%s, %d signatures (%d unique), "
          "%d violations, %d dedup hits"
          % (sessions, "" if sessions == 1 else "s",
             sum(r.signatures for r in daemon.reports),
             sum(r.unique_signatures for r in daemon.reports),
             sum(r.violations for r in daemon.reports),
             sum(r.dedup_hits for r in daemon.reports)))
    report = _emit_report(
        args, handle,
        meta={"command": "serve", "host": config.host},
        summary={"sessions": sessions,
                 "signatures": sum(r.signatures for r in daemon.reports),
                 "violations": sum(r.violations for r in daemon.reports),
                 "dedup_hits": sum(r.dedup_hits for r in daemon.reports)})
    _emit_telemetry(args, handle, report)
    return 0


def _cmd_submit(args) -> int:
    from repro.serve.client import submit_campaign

    host, port = _parse_address(args.address)
    result = repro_io.read_campaign(args.dump)
    report = submit_campaign(host, port, result, batch=args.batch,
                             session=args.session, window=args.window,
                             timeout_s=args.timeout)
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print("session %d: %d signatures (%d unique), %d violations, "
              "%d dedup hits%s"
              % (report["session_id"], report["signatures"],
                 report["unique_signatures"], report["violations"],
                 report["dedup_hits"],
                 " [daemon drained]" if report["drained"] else ""))
    return 1 if report["violations"] else 0


def _cmd_stats(args) -> int:
    from repro.obs import events as obs_events

    kind, doc = repro_obs.load_telemetry(args.report)
    if args.validate:
        if kind == "report":
            print("%s: valid %s report (version %d)"
                  % (args.report, doc["schema"], doc["version"]))
        else:
            print("%s: valid %s event log (version %d, %d events)"
                  % (args.report, obs_events.SCHEMA,
                     obs_events.SCHEMA_VERSION, len(doc)))
        return 0
    if kind == "report":
        print(repro_obs.render_stats(doc))
    else:
        print(repro_obs.render_events(doc))
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.traceviz import build_trace, write_trace

    kind, doc = repro_obs.load_telemetry(args.input)
    if kind == "report":
        trace = build_trace(report=doc, meta={"source": args.input})
    else:
        trace = build_trace(events=doc, meta={"source": args.input})
    write_trace(trace, args.output)
    print("trace written to %s (%d trace events from %s %s; load in "
          "ui.perfetto.dev)" % (args.output, len(trace["traceEvents"]),
                                "run report" if kind == "report"
                                else "event log", args.input))
    return 0


def _cmd_events(args) -> int:
    print(repro_obs.events_markdown() if args.markdown
          else repro_obs.events_table())
    return 0


def _cmd_bench_diff(args) -> int:
    from repro.obs import bench

    tolerance = bench.DEFAULT_TOLERANCE if args.tolerance is None \
        else args.tolerance
    comparison: bench.CountGate | bench.BenchComparison
    if args.check:
        if args.baseline or args.current:
            raise ValueError("--check re-runs the pinned configs itself; "
                             "drop the BASELINE/CURRENT arguments")
        comparison = bench.check_against_committed(args.results,
                                                   tolerance=tolerance)
    else:
        if not (args.baseline and args.current):
            raise ValueError("need BASELINE and CURRENT snapshots "
                             "(or --check)")
        comparison = bench.diff_snapshots(
            bench.load_snapshot(args.baseline),
            bench.load_snapshot(args.current), tolerance=tolerance)
    if args.json:
        json.dump(comparison.to_json(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(comparison.render())
    return 1 if comparison.failed else 0


def _cmd_bench_record(args) -> int:
    from repro.obs import bench

    snapshot = bench.load_snapshot(args.snapshot)
    # keyed by file name, so one snapshot keeps one trajectory whatever
    # directory it was recorded from
    entry = bench.history_entry(os.path.basename(args.snapshot), snapshot,
                                note=args.note)
    bench.append_history(args.history, entry)
    print("recorded %s -> %s (%d count leaves, digest %s)"
          % (args.snapshot, args.history,
             entry["digest"]["count_leaves"],
             entry["digest"]["counts_sha256_16"]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MTraceCheck reproduction: post-silicon MCM validation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a constrained-random test")
    _add_config_arguments(p)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("instrument", help="show instrumentation metrics")
    _add_config_arguments(p)
    p.add_argument("--listing", action="store_true",
                   help="print the instrumented pseudo-assembly")
    p.set_defaults(fn=_cmd_instrument)

    p = sub.add_parser("run", help="execute a test, collect signatures")
    _add_config_arguments(p)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--run-seed", type=int, default=1)
    p.add_argument("--os", action="store_true", help="enable OS perturbation")
    p.add_argument("--detailed", action="store_true",
                   help="use the detailed MESI simulator (x86 only)")
    p.add_argument("--bug", type=int, choices=(1, 2, 3),
                   help="inject a paper Section-7 bug (implies --detailed)")
    p.add_argument("--l1-lines", type=int, default=4,
                   help="detailed simulator L1 capacity in lines")
    p.add_argument("--mutation", metavar="NAME",
                   help="arm a registered mutation's fault plane on this "
                        "campaign (see 'repro mutate --list')")
    p.add_argument("--output", "-o", help="write a JSON signature dump")
    p.add_argument("--jobs", type=int, default=1,
                   help="shard the campaign over N worker processes")
    p.add_argument("--block", type=int, default=None,
                   help="seed-block size override (default 1024); smaller "
                        "blocks spread short campaigns over more workers")
    p.add_argument("--progress", action="store_true",
                   help="draw a live fleet status line on stderr "
                        "(heartbeats; needs --jobs > 1)")
    _add_lint_argument(p)
    _add_pipeline_argument(p)
    _add_cross_check_argument(p)
    _add_report_arguments(p, json_flag=True)
    p.add_argument("--events-out", metavar="PATH",
                   help="write the run's structured event log as JSONL")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write a Perfetto-loadable Chrome trace "
                        "(span tree + fleet timeline)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("suite", help="run a multi-test suite, aggregate stats")
    _add_config_arguments(p)
    p.add_argument("--tests", type=int, default=10,
                   help="distinct tests to generate (paper: 10)")
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--run-seed", type=int, default=0)
    p.add_argument("--os", action="store_true", help="enable OS perturbation")
    p.add_argument("--jobs", type=int, default=1,
                   help="shard the suite's tests over N worker processes")
    _add_lint_argument(p)
    _add_pipeline_argument(p)
    _add_report_arguments(p, json_flag=True)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("merge", help="merge campaign shard dumps (host side)")
    p.add_argument("shards", nargs="+", help="JSON dumps from 'repro run -o'")
    p.add_argument("--output", "-o", required=True,
                   help="write the merged JSON dump here")
    p.set_defaults(fn=_cmd_merge)

    p = sub.add_parser("check", help="check a signature dump (host side)")
    p.add_argument("dump", help="JSON dump from 'repro run -o'")
    p.add_argument("--model", choices=("sc", "tso", "weak"),
                   help="memory model (default: inferred from the dump)")
    p.add_argument("--ws-mode", choices=("static", "observed"), default="static")
    _add_pipeline_argument(p)
    _add_cross_check_argument(p)
    _add_report_arguments(p, json_flag=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("litmus", help="run the litmus library")
    p.add_argument("--model", choices=("sc", "tso", "weak"), default="tso")
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument("--run-seed", type=int, default=1)
    p.add_argument("--extended", action="store_true",
                   help="include the extended litmus set")
    _add_report_arguments(p, json_flag=False)
    p.set_defaults(fn=_cmd_litmus)

    p = sub.add_parser(
        "lint", help="statically lint test programs and instrumentation")
    _add_config_arguments(p)
    p.add_argument("--tests", type=int, default=1,
                   help="lint a generated suite of N tests (default 1)")
    p.add_argument("--input", "-i", metavar="PATH",
                   help="lint an assembler-text program file instead "
                        "(as emitted by 'repro generate')")
    p.add_argument("--litmus", action="store_true",
                   help="lint every program in the litmus library instead")
    p.add_argument("--fail-on", choices=("error", "warning", "info", "never"),
                   default="error",
                   help="exit 1 when any program has a finding at or above "
                        "this severity (default: error)")
    p.add_argument("--exhaustive-limit", type=int, default=512,
                   help="verify every rf assignment when the signature "
                        "space is at most this large (default 512)")
    p.add_argument("--samples", type=int, default=64,
                   help="sampled assignments above the exhaustive limit")
    p.add_argument("--lint-seed", type=int, default=0,
                   help="verifier sampling seed")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="also print per-program headers with no findings")
    p.add_argument("--json", action="store_true",
                   help="print reports as one JSON document")
    p.add_argument("--rules", action="store_true",
                   help="print the rule reference and exit")
    p.add_argument("--markdown", action="store_true",
                   help="with --rules, emit markdown (docs/LINT_RULES.md)")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write a schema-versioned observability run report")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "feasible",
        help="statically enumerate the feasible outcome set of a test")
    _add_config_arguments(p)
    p.add_argument("--tests", type=int, default=1,
                   help="analyze a generated suite of N tests (default 1)")
    p.add_argument("--input", "-i", metavar="PATH",
                   help="analyze an assembler-text program file instead "
                        "(as emitted by 'repro generate')")
    p.add_argument("--litmus", action="store_true",
                   help="analyze every program in the litmus library instead")
    p.add_argument("--model", choices=("sc", "tso", "weak"), default=None,
                   help="memory model (default: the config's, or tso for "
                        "--input/--litmus)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="full enumeration up to this many rf assignments "
                        "(default %d); larger spaces are sampled"
                        % DEFAULT_BUDGET)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="seeded assignments drawn above the budget "
                        "(default %d)" % DEFAULT_SAMPLES)
    p.add_argument("--feasible-seed", type=int, default=0,
                   help="sampling seed above the budget")
    p.add_argument("--list-outcomes", action="store_true",
                   help="print every feasible signature with its decoded "
                        "per-load outcome")
    p.add_argument("--coverage", action="store_true",
                   help="also execute the program and report how much of "
                        "the feasible set the run observed; exits 1 when "
                        "any observed signature is infeasible")
    p.add_argument("--iterations", type=int, default=2000,
                   help="iterations for --coverage (default 2000)")
    p.add_argument("--run-seed", type=int, default=1,
                   help="execution seed for --coverage")
    p.add_argument("--json", action="store_true",
                   help="print the analysis as one JSON document")
    p.add_argument("--doc", action="store_true",
                   help="print the feasibility reference "
                        "(docs/FEASIBLE.md) and exit")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write a schema-versioned observability run report")
    p.set_defaults(fn=_cmd_feasible)

    p = sub.add_parser(
        "mutate", help="checker-sensitivity campaigns over injected faults")
    p.add_argument("--list", action="store_true",
                   help="print the fault-injection registry and exit")
    p.add_argument("--mutation", metavar="NAME", action="append",
                   help="run only this mutation (repeatable)")
    p.add_argument("--detailed", action="store_true",
                   help="also run the detailed-simulator gem5 bugs "
                        "(an order of magnitude slower)")
    p.add_argument("--budget", type=int, default=None,
                   help="override every spec's executions-to-detection "
                        "ceiling per seed")
    p.add_argument("--seeds", type=int, default=None,
                   help="override every spec's independent campaign seeds")
    p.add_argument("--base-seed", type=int, default=0,
                   help="offset added to each campaign seed")
    p.add_argument("--jobs", type=int, default=1,
                   help="fleet worker processes per campaign")
    p.add_argument("--no-control", action="store_true",
                   help="skip the unmutated control runs (faster; drops "
                        "the signature-diversity comparison)")
    _add_cross_check_argument(p)
    p.add_argument("--json", action="store_true",
                   help="print detection outcomes as one JSON document")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write a schema-versioned observability run report")
    p.set_defaults(fn=_cmd_mutate)

    p = sub.add_parser(
        "serve", help="run the streaming checking-as-a-service daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="ingest port (default 0: pick a free one)")
    p.add_argument("--port-file", metavar="PATH",
                   help="write the bound ingest port here once listening")
    p.add_argument("--queue-depth", type=int, default=8,
                   help="bounded per-session ingest queue; submits beyond "
                        "it are answered 'busy' (default 8)")
    p.add_argument("--max-batch", type=int, default=4096,
                   help="largest signature batch one submit may carry")
    p.add_argument("--report-out", metavar="PATH",
                   help="append every flushed session report as JSONL")
    p.add_argument("--dedup", metavar="PATH",
                   help="JSONL journal for the cross-client signature "
                        "dedup store (replayed on restart)")
    p.add_argument("--progress", action="store_true",
                   help="draw live per-session progress rows on stderr")
    p.add_argument("--protocol-doc", action="store_true",
                   help="print the wire-protocol reference "
                        "(docs/SERVE_PROTOCOL.md) and exit")
    _add_report_arguments(p, json_flag=False)
    p.add_argument("--events-out", metavar="PATH",
                   help="write the daemon's structured event log as JSONL")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write a Perfetto-loadable Chrome trace of the "
                        "serve run")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "submit", help="stream a signature dump into a serve daemon")
    p.add_argument("address", metavar="HOST:PORT",
                   help="the daemon's ingest address")
    p.add_argument("dump", help="JSON dump from 'repro run -o'")
    p.add_argument("--batch", type=int, default=256,
                   help="signatures per submit frame (default 256)")
    p.add_argument("--session", default="",
                   help="session label echoed in daemon telemetry")
    p.add_argument("--window", type=int, default=4,
                   help="max unacknowledged batches in flight")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="per-frame socket timeout in seconds")
    p.add_argument("--json", action="store_true",
                   help="print the final report frame as JSON")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser("stats",
                       help="render saved telemetry (run report or event log)")
    p.add_argument("report", help="JSON report from '--metrics-out' or "
                                  "JSONL event log from '--events-out'")
    p.add_argument("--validate", action="store_true",
                   help="only check the artifact against its schema")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("trace",
                       help="convert saved telemetry to a Perfetto trace")
    p.add_argument("input", help="run report ('--metrics-out') or event "
                                 "log ('--events-out')")
    p.add_argument("--output", "-o", required=True,
                   help="write Chrome trace-event JSON here")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("events", help="print the event schema reference")
    p.add_argument("--markdown", action="store_true",
                   help="emit markdown (docs/EVENTS.md)")
    p.set_defaults(fn=_cmd_events)

    p = sub.add_parser("bench",
                       help="benchmark snapshots: record and regression-diff")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    bp = bench_sub.add_parser("diff",
                              help="compare two snapshots, or --check a "
                                   "fresh run against committed baselines")
    bp.add_argument("baseline", nargs="?",
                    help="baseline snapshot JSON (omit with --check)")
    bp.add_argument("current", nargs="?",
                    help="current snapshot JSON (omit with --check)")
    bp.add_argument("--check", action="store_true",
                    help="re-run the gate configs through the delta, "
                         "packed and poly pipelines and compare their "
                         "counts with the committed benchmarks/ snapshots")
    bp.add_argument("--results", default="benchmarks/results",
                    help="committed snapshot directory used by --check")
    bp.add_argument("--tolerance", type=float, default=None,
                    help="relative tolerance band for timing keys "
                         "(default 0.10)")
    bp.add_argument("--json", action="store_true",
                    help="print the comparison as one JSON document")
    bp.set_defaults(fn=_cmd_bench_diff)
    bp = bench_sub.add_parser("record",
                              help="append a history entry for a snapshot")
    bp.add_argument("snapshot", help="snapshot JSON to digest")
    bp.add_argument("--history", default="benchmarks/results/BENCH_history.jsonl",
                    help="history JSONL to append to")
    bp.add_argument("--note", default="", help="free-form annotation")
    bp.set_defaults(fn=_cmd_bench_record)
    return parser


def _add_pipeline_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--check-pipeline", dest="pipeline",
                        choices=PIPELINES,
                        default="delta",
                        help="collective-checking pipeline: 'delta' "
                             "(default) streams incremental signature "
                             "decodes and edge deltas, never holding more "
                             "than one full graph; 'packed' compiles the "
                             "block into flat arrays (CSR edge universe, "
                             "block decode) and replays it; "
                             "'poly' verifies each signature by frontier "
                             "closure (independent algorithm family, no "
                             "constraint graph); 'graphs' materializes "
                             "every constraint graph first (legacy path; "
                             "--ws-mode observed always uses it)")


def _add_cross_check_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cross-check", choices=CROSS_CHECKS, default=None,
                        help="corroborate the checker against an "
                             "independent oracle: 'feasible' decides each "
                             "observed signature exactly by the static "
                             "feasibility rules (decode, derive, one "
                             "acyclicity test).  Infeasible signatures the "
                             "checker passed are hardware bugs; "
                             "oracle/checker disagreements are checker "
                             "bugs and flip the exit code")


def _add_lint_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lint", choices=("off", "skip", "fail"),
                        default="off",
                        help="gate campaigns on the static linter: 'skip' "
                             "drops lint-error tests and trims zero-entropy "
                             "tests to one iteration; 'fail' aborts on lint "
                             "errors")


def _add_report_arguments(parser: argparse.ArgumentParser, json_flag: bool) -> None:
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write a schema-versioned observability run report")
    if json_flag:
        parser.add_argument("--json", action="store_true",
                            help="print the run report as JSON instead of text")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

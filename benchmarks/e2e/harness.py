"""One pass of one workload, in this process only: set up, drive, check.

``run.py`` starts this file as a fresh subprocess per pass, because the
RSA keypair cache (``repro.proxy.service._KEYPAIR_CACHE``) and peak RSS
are per process: only a fresh process pays key generation again and
has a high-water mark of its own.  Single thread; prints one JSON
object (the last line of stdout) that ``metrics.py`` turns into the
named metrics.

Two clocks, never mixed: *host* time (``time.perf_counter``, with
``time.process_time`` beside it) is what the program costs to run;
*simulated* time is what the modelled cluster would take.  Host times
are divided by the host's speed factor at that moment (``hostclock.py``).
"""

from __future__ import annotations

import time

from hostclock import host_factor

# The set-up clock starts before the program's own imports: their cost
# is set-up the user pays too.
_SETUP_FACTORS = [host_factor()]
_PROCESS_START = time.perf_counter()

import argparse
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.client.library import CompletedCall, PProxClient
from repro.context import Deployment, SimContext
from repro.crypto import keys as crypto_keys
from repro.crypto.envelope import EnvelopeCodec, encode_identifier
from repro.crypto.provider import RealCryptoProvider
from repro.lrs.engine import HarnessEngine
from repro.lrs.service import HarnessService
from repro.lrs.stub import make_pseudonymous_payload
from repro.obs.causal import CausalTracer, instrument_causal
from repro.proxy import protocol
from repro.proxy.layers import ItemAnonymizer, UserAnonymizer
from repro.proxy.shuffler import ShuffleBuffer
from repro.rest.codec import BinaryCodec, JsonCodec
from repro.rest.messages import Verb
from repro.simnet.clock import EventLoop
from repro.simnet.metrics import LatencyRecorder, percentile
from repro.simnet.network import Network
from repro.simnet.node import SimNode
from repro.simnet.rng import RngRegistry
from repro.telemetry import Telemetry, instrument_stack
from repro.workload.injector import Injector

from oracle import Oracle, RecordingStub
from tracing import SpanRecorder, TimedLoop
from workloads import DEPLOYMENT_SEED, WORKLOADS, Inputs, Phase, Workload, generate_inputs

_SETUP_FACTORS.append(host_factor())

#: Share of each phase's virtual window trimmed at both ends before
#: simulated latency percentiles are taken (warm-up and drain).
TRIM_SHARE = 0.10


# ----------------------------------------------------------------- tracing


def arm_entry_points(recorder: SpanRecorder) -> None:
    """Replace, by attribute and for the life of this process, the
    public entry points the layers call each other through."""
    # ``crypto.keys`` binds the function by from-import, so the name to
    # replace is the one in its namespace, not ``crypto.rsa``'s.
    recorder.patch(crypto_keys, "generate_keypair", "crypto.keygen")
    recorder.patch(protocol, "client_encode_get", "client.encode")
    recorder.patch(protocol, "client_encode_post", "client.encode")
    recorder.patch(protocol, "client_decode_response", "client.decode")
    recorder.patch(protocol, "ua_transform_request", "proxy.ua_request")
    recorder.patch(protocol, "ua_wrap_response", "proxy.ua_response")
    recorder.patch(protocol, "ia_transform_request", "proxy.ia_request")
    recorder.patch(protocol, "ia_transform_response", "proxy.ia_response")
    recorder.patch(EnvelopeCodec, "seal_batch", "envelope.seal")
    recorder.patch(EnvelopeCodec, "open_batch", "envelope.open")
    recorder.patch(ShuffleBuffer, "add", "shuffler.add")
    recorder.patch(Network, "send", "simnet.send")
    recorder.patch(SimNode, "submit", "simnet.submit")
    recorder.patch(PProxClient, "get", "client.call")
    recorder.patch(PProxClient, "post", "client.call")
    recorder.patch(UserAnonymizer, "receive_request", "layers.receive")
    recorder.patch(ItemAnonymizer, "receive_request", "layers.receive")
    recorder.patch(ItemAnonymizer, "receive_batch", "layers.receive")


def _payload_bytes(args: tuple) -> int:
    return len(args[-1])


def arm_provider(recorder: SpanRecorder, provider: RealCryptoProvider) -> None:
    recorder.patch(provider, "asym_encrypt", "crypto.asym_encrypt")
    recorder.patch(provider, "asym_decrypt", "crypto.asym_decrypt")
    recorder.patch(provider, "sym_encrypt", "crypto.sym_encrypt", count_bytes=_payload_bytes)
    recorder.patch(provider, "sym_decrypt", "crypto.sym_decrypt", count_bytes=_payload_bytes)
    # The entry points the protocol calls.  ``depseudonymize`` itself
    # stays untimed, so a 20-item list is one span, not twenty-one.
    recorder.patch(provider, "depseudonymize_many", "crypto.pseudonymize")
    recorder.patch(provider, "pseudonymize", "crypto.pseudonymize")


def arm_codec(recorder: SpanRecorder, codec: Any) -> None:
    for method in ("encode_request", "encode_response"):
        recorder.patch(codec, method, "rest.encode")
    for method in ("decode_request", "decode_response"):
        recorder.patch(codec, method, "rest.decode")
    for method in (
        "pack_items", "unpack_items", "pack_envelope", "unpack_envelope",
        "pack_response_fields", "unpack_response_fields",
    ):
        recorder.patch(codec, method, "rest.pack")


def arm_telemetry(recorder: SpanRecorder, hub: Telemetry, causal: CausalTracer) -> None:
    for method in ("record_hop", "annotate", "end_trace", "abandon"):
        recorder.patch(hub.tracer, method, "telemetry.trace")
    for method in ("start_call", "stamp", "settle_call", "absorb"):
        recorder.patch(causal, method, "telemetry.trace")


def _buffers(service: Any) -> List[ShuffleBuffer]:
    found = [instance.request_buffer for instance in service.ua_instances]
    found += [instance.response_buffer for instance in service.ia_instances]
    return [buffer for buffer in found if buffer is not None]


def watch_flushes(service: Any, clock: Callable[[], float]) -> List[Tuple[float, int, bool]]:
    """Chain a recorder behind every buffer's ``on_flush`` hook."""
    flushes: List[Tuple[float, int, bool]] = []
    for buffer in _buffers(service):
        def hook(size: int, timer_fired: bool, _previous=buffer.on_flush) -> None:
            if _previous is not None:
                _previous(size, timer_fired)
            flushes.append((clock(), size, timer_fired))

        buffer.on_flush = hook
    return flushes


def arm_releases(recorder: SpanRecorder, service: Any, clock: Callable[[], float]) -> List[float]:
    """Time what a flush hands back to its layer, and sum how long the
    released entries waited (simulated).  Returns ``[seconds, entries]``."""
    waited = [0.0, 0]
    for buffer in _buffers(service):
        def released(entry: Any, _buffer=buffer,
                     _release=recorder.spanned("layers.release", buffer.release)) -> None:
            waited[0] += _buffer.last_wait
            waited[1] += 1
            _release(entry)

        buffer.release = released
        if buffer.release_batch is not None:
            def released_batch(batch: list, _release=recorder.spanned(
                    "layers.release", buffer.release_batch)) -> None:
                now = clock()
                waited[0] += sum(now - enqueued_at for _, enqueued_at in batch)
                waited[1] += len(batch)
                _release(batch)

            buffer.release_batch = released_batch
    return waited


# ------------------------------------------------------------------ set-up


@dataclass
class Stack:
    """Everything one pass built, for the drive and collect steps."""

    ctx: SimContext
    service: Any
    client: PProxClient
    oracle: Oracle
    flushes: List[Tuple[float, int, bool]]
    stub: Optional[RecordingStub] = None
    harness: Optional[HarnessService] = None
    hub: Optional[Telemetry] = None
    #: Traced runs: ``[simulated seconds, entries]`` waited in buffers.
    waited: Optional[List[float]] = None


def build_stack(workload: Workload, inputs: Inputs, recorder: Optional[SpanRecorder]) -> Stack:
    """Real UA/IA enclave models, shuffler, codec and LRS for *workload*."""
    loop: Any = EventLoop()
    if recorder is not None:
        arm_entry_points(recorder)
        recorder.watch_gc()
        loop = TimedLoop(loop, recorder)
    hub = Telemetry(scrape_interval=1.0) if workload.observed else None
    # Fresh codec instances: the traced run replaces their methods, and
    # the module-level singletons belong to the program.
    codec = JsonCodec() if workload.codec == "json" else BinaryCodec()
    ctx = SimContext.fresh(DEPLOYMENT_SEED, loop=loop, codec=codec, telemetry=hub)
    provider = RealCryptoProvider(rng_bytes=ctx.rng.bytes_fn("provider"))
    ctx.provider = provider
    if recorder is not None:
        arm_provider(recorder, provider)
        arm_codec(recorder, codec)
    if hub is not None:
        hub.bind(ctx.loop, run_label=workload.name)

    stub = harness = None
    if workload.lrs == "harness":
        engine = HarnessEngine()
        harness = HarnessService(
            loop=ctx.loop, rng=ctx.rng.stream("lrs"), frontend_count=6, engine=engine
        )
        lrs_picker: Callable[[], object] = harness.pick_frontend
        if recorder is not None:
            for frontend in harness.frontends:
                recorder.patch(frontend, "handle", "lrs.handle")
            recorder.patch(engine, "post_event", "lrs.handle")
            recorder.patch(engine, "get_recommendations", "lrs.handle")
    else:
        stub = RecordingStub(loop=ctx.loop, rng=ctx.rng.stream("stub"))
        lrs_picker = lambda: stub
        if recorder is not None:
            recorder.patch(stub, "handle", "lrs.handle")

    deployment = Deployment.build(ctx=ctx, config=workload.config, lrs_picker=lrs_picker)
    service = deployment.service
    layer_keys = service.provisioner.layer_keys
    if stub is not None and workload.config.item_pseudonymization:
        stub.items = make_pseudonymous_payload(provider, layer_keys["IA"].symmetric_key)
    if harness is not None:
        # Warm start under the deployment's own pseudonyms and through
        # its own provider (the precedent ``make_pseudonymous_payload``
        # sets), then the first training: the store, model and
        # pseudonym memo of a system that has been serving for a while.
        stored: Dict[Tuple[str, str], str] = {}
        for user, item in inputs.warm_events:
            for layer, identifier in (("UA", user), ("IA", item)):
                if (layer, identifier) not in stored:
                    stored[layer, identifier] = EnvelopeCodec.wire_text(
                        provider.pseudonymize(
                            layer_keys[layer].symmetric_key, encode_identifier(identifier)
                        )
                    )
            harness.engine.post_event(stored["UA", user], stored["IA", item])
        harness.train()

    causal = None
    if hub is not None:
        causal = CausalTracer(clock=lambda: ctx.loop.now, event_log=hub.event_log)
        causal.attach_metrics(hub.registry)
        service.runtime.causal = causal
        if recorder is not None:
            arm_telemetry(recorder, hub, causal)
    clock = lambda: ctx.loop.now
    return Stack(
        ctx=ctx,
        service=service,
        client=deployment.client(causal=causal),
        oracle=Oracle(workload.config, layer_keys),
        flushes=watch_flushes(service, clock),
        stub=stub,
        harness=harness,
        hub=hub,
        waited=arm_releases(recorder, service, clock) if recorder is not None else None,
    )


def arm_observability(stack: Stack, injector: Injector) -> None:
    """The plane ``obs.smoke`` arms, minus its wiretap and SLO engine."""
    instrument_stack(
        stack.hub,
        service=stack.service,
        provider=stack.ctx.provider,
        lrs=stack.stub,
        injector=injector,
        network=stack.ctx.network,
        client=stack.client,
    )
    instrument_causal(stack.service.runtime.causal, stack.service)


# ------------------------------------------------------------------- drive


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def drive_phase(
    stack: Stack,
    phase: Phase,
    requests: List[tuple],
    injector: Injector,
    observe: Callable[[CompletedCall], None],
) -> Dict[str, Any]:
    """Inject *requests* open-loop and time the window in K segments."""
    loop = stack.ctx.loop
    pending = iter(requests)
    send = stack.client.get if phase.verb == "get" else stack.client.post

    def issue(report: Callable[[CompletedCall], None]) -> None:
        def completed(call: CompletedCall) -> None:
            observe(call)
            report(call)

        send(*next(pending), on_complete=completed)

    duration = len(requests) / phase.rate
    start, end = injector.inject(phase.rate, duration, issue, start_at=loop.now)
    report = injector.report
    per_request: List[float] = []
    factors: List[float] = []
    wall = cpu = 0.0
    factor_before = host_factor()
    for segment in range(1, phase.segments + 1):
        settled = report.completed + report.failed
        cpu_start = time.process_time()
        segment_start = time.perf_counter()
        if segment < phase.segments:
            loop.run_until(start + segment * duration / phase.segments)
        else:
            # The last segment also drains what is still in flight, so
            # every issued request's work is inside some segment.
            loop.run_until(end)
            loop.run()
        elapsed = time.perf_counter() - segment_start
        cpu += time.process_time() - cpu_start
        wall += elapsed
        factor_after = host_factor()
        factors.append((factor_before + factor_after) / 2)
        factor_before = factor_after
        settled = report.completed + report.failed - settled
        if settled:
            per_request.append(elapsed / settled * 1e6 / factors[-1])
    if not per_request:
        per_request = [wall / max(1, report.completed) * 1e6 / statistics.median(factors)]
    q1, median, q3 = _quartiles(per_request)
    trim = TRIM_SHARE * duration
    return {
        "verb": phase.verb,
        "issued": report.issued,
        "completed": report.completed,
        "failed": report.failed,
        "lost": stack.oracle.accounting(
            phase.verb, report.issued, report.completed, report.failed, len(requests)
        ),
        "load": (start, end),
        "wall_s": wall,
        "cpu_s": cpu,
        "host_factor": statistics.median(factors),
        "us_per_req": {"median": median, "q1": q1, "q3": q3, "k": len(per_request)},
        "sim_latencies": injector.recorder.trimmed(start + trim, end - trim),
    }


def final_counts(stack: Stack, workload: Workload) -> Dict[str, int]:
    """Counters that start at zero with the deployment, read at the end."""
    instances = stack.service.ua_instances + stack.service.ia_instances
    event_log = stack.hub.event_log if stack.hub is not None else None
    return dict(
        flushes=len(stack.flushes),
        full_flushes=sum(
            1 for _, size, _ in stack.flushes if size >= workload.config.shuffle_size
        ),
        peak_pending=stack.ctx.loop.queue_stats()["peak_pending"],
        sheds=sum(instance.sheds for instance in instances),
        transform_errors=sum(instance.transform_errors for instance in instances),
        lrs_requests=(
            stack.stub.requests_served if stack.stub is not None
            else sum(frontend.requests_served for frontend in stack.harness.frontends)
        ),
        envelopes=sum(instance.batch_envelopes_sealed for instance in stack.service.ua_instances),
        telemetry_events=len(event_log) if event_log is not None else 0,
        telemetry_spans=len(event_log.of_kind("span")) if event_log is not None else 0,
    )


def run_pass(
    workload: Workload, seed: int, seconds: float, fraction: float, traced: bool,
    setup_only: bool,
) -> Dict[str, Any]:
    recorder = SpanRecorder() if traced else None
    inputs = generate_inputs(workload, seed, seconds, fraction)
    stack = build_stack(workload, inputs, recorder)
    _SETUP_FACTORS.append(host_factor())
    loop, network = stack.ctx.loop, stack.ctx.network
    arrivals = RngRegistry(seed)
    injectors = [
        Injector(loop, arrivals.stream(f"arrivals-{index}"), recorder=LatencyRecorder(phase.verb))
        for index, phase in enumerate(workload.phases)
    ]
    if stack.hub is not None:
        arm_observability(stack, injectors[0])
    # Set-up ends where the first arrival is about to be scheduled.  The
    # host factor was sampled before and after the imports, after the
    # build and now.
    setup_raw = time.perf_counter() - _PROCESS_START
    setup_factor = statistics.fmean(_SETUP_FACTORS + [host_factor()])
    result: Dict[str, Any] = {
        "workload": workload.name,
        "observed": workload.observed,
        "gen_s": inputs.gen_seconds,
        "setup_s": setup_raw / setup_factor,
        "setup_host_factor": setup_factor,
    }
    if recorder is not None:
        # Key generation has no timed children, so its self time is all of it.
        result["keygen_raw_s"] = recorder.fold(0, recorder.mark())["crypto.keygen"][1]
    if setup_only:
        return result

    get_calls: List[CompletedCall] = []
    if stack.stub is not None:
        observe: Callable[[CompletedCall], None] = stack.oracle.stub_get
    else:
        def observe(call: CompletedCall) -> None:
            if call.verb == Verb.GET:
                get_calls.append(call)
    if recorder is not None:
        observe = recorder.spanned("workload.complete", observe)

    instances = stack.service.ua_instances + stack.service.ia_instances

    def cumulative() -> Dict[str, int]:
        memo = stack.ctx.provider.cache_stats()
        return {
            "events": loop.events_processed,
            "sends": network.messages_sent,
            "wire_bytes": network.bytes_sent,
            "ecalls": sum(instance.enclave.ecall_count for instance in instances),
            "memo_hits": memo["pseudonymize"]["hits"] + memo["depseudonymize"]["hits"],
            "memo_misses": memo["pseudonymize"]["misses"] + memo["depseudonymize"]["misses"],
        }

    before = cumulative()
    windows: List[Tuple[int, int]] = []
    phases: List[Dict[str, Any]] = []
    train_seconds = 0.0
    for phase, requests, injector in zip(workload.phases, inputs.phases, injectors):
        if phases and stack.harness is not None:
            # Between the feedback and the query phase the paper's
            # scenario retrains; timed apart, in neither phase.
            factor_before = host_factor()
            started = time.perf_counter()
            stack.harness.train()
            train_seconds = time.perf_counter() - started
            train_seconds /= (factor_before + host_factor()) / 2
        first = recorder.mark() if recorder is not None else 0
        phases.append(drive_phase(stack, phase, requests, injector, observe))
        if recorder is not None:
            windows.append((first, recorder.mark()))
        if phase.verb == "post":
            stored = (
                stack.stub.posts if stack.stub is not None
                else [(event.user, event.item)
                      for event in stack.harness.engine.store.events[len(inputs.warm_events):]]
            )
            stack.oracle.posts(requests, phases[-1]["completed"], stored)
    counted = {name: after - before[name] for name, after in cumulative().items()}
    # Read before the oracle's own after-the-run work can raise it.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle = stack.oracle
    if stack.harness is not None:
        oracle.harness_gets(get_calls, stack.harness.engine)
    if workload.config.shuffling:
        oracle.flushes(stack.flushes, [phase["load"] for phase in phases])

    latencies = sorted(value for phase in phases for value in phase.pop("sim_latencies"))
    counted.update(final_counts(stack, workload))
    costs, config = stack.ctx.costs, workload.config
    result.update(
        phases=phases,
        train_s=train_seconds,
        sim={
            "n": len(latencies),
            "p50_ms": percentile(latencies, 0.50) * 1e3 if latencies else 0.0,
            "p99_ms": percentile(latencies, 0.99) * 1e3 if latencies else 0.0,
        },
        # Simulated enclave overhead the cost model charges one request
        # across its four proxy legs.
        sgx_sim_overhead_ms=4 * costs.sgx.request_overhead(0) * 1e3 if config.sgx else 0.0,
        counts=counted,
        oracle={"mismatches": oracle.mismatches, "violations": oracle.violations},
        peak_rss_mib=peak_rss_mib,
    )
    if recorder is not None:
        spans: Dict[str, List[float]] = {}
        for (first, last), phase in zip(windows, phases):
            for name, (calls, self_seconds) in recorder.fold(first, last).items():
                total = spans.setdefault(name, [0, 0.0])
                total[0] += calls
                total[1] += self_seconds / phase["host_factor"]
        result["spans"] = spans
        result["span_bytes"] = dict(recorder.counters)
        result["shuffle_wait"] = {"seconds": stack.waited[0], "entries": stack.waited[1]}
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--fraction", type=float, default=1.0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_pass(
        WORKLOADS[args.workload], args.seed, args.seconds, args.fraction,
        bool(args.traced), bool(args.setup_only),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The ADN data-plane path over mRPC (the paper's prototype processor).

``AdnMrpcStack`` wires a compiled chain + placement plan into a runnable
RPC path on the simulated cluster:

.. code-block:: text

    client app ──shm──▶ [client-side segments] ──wire──▶ [switch segment]
        ──wire──▶ [server-side segments] ──shm──▶ server app
    (response traverses the same segments in reverse)

Key fidelity points:

* messages are *really* encoded with the hop's minimal header layout
  (:class:`~repro.net.wire.AdnWireCodec`), once per wire crossing — wire
  sizes are that encoding's exact length, not assumed;
* elements *really* execute (drops, rewrites, state);
* transport CPU is charged to whoever owns the wire on each side: the
  mRPC engine (default) or the RPC library itself ("proxyless", Figure 2
  config 1);
* an RPC aborted by an element turns around at that processor and pays
  only the return hops it actually crossed.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Generator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..compiler.compiler import CompiledChain
from ..compiler.headers import plan_hop_headers
from ..dsl.functions import FunctionRegistry
from ..dsl.schema import RpcSchema
from ..errors import PlacementError, StaleEpochError
from ..net.tcp import wire_bytes_for_message
from ..net.wire import AdnWireCodec
from ..overload import DEADLINE_EXPIRED, DEADLINE_FIELD
from ..overload.admission import AdmissionConfig, AdmissionController
from ..overload.budget import (
    CircuitBreaker,
    CircuitBreakerPolicy,
    RetryBudget,
    RetryBudgetConfig,
    lower_filter,
)
from ..platforms import Platform
from ..sim.cluster import Cluster
from ..sim.engine import US, Simulator
from ..sim.resources import Resource
from .message import (
    Row,
    RpcOutcome,
    make_abort,
    make_request,
    make_response,
)
from .processor import (
    PlacementPlan,
    PlacementSegment,
    ProcessorRuntime,
)

#: key a server handler may put in its overrides dict to abort the RPC
#: at the server boundary instead of answering it (the value becomes the
#: ``aborted_by`` reason) — how a graph service fails upward when a
#: required downstream call failed
ABORT_KEY = "__abort__"


def _handler_arity(handler) -> int:
    """Positional parameters a server handler accepts (1 = legacy
    request-only, 2 = request + propagated absolute deadline)."""
    import inspect

    try:
        parameters = inspect.signature(handler).parameters.values()
    except (TypeError, ValueError):  # builtins, odd callables
        return 1
    kinds = [parameter.kind for parameter in parameters]
    if inspect.Parameter.VAR_POSITIONAL in kinds:
        return 2
    positional = (
        inspect.Parameter.POSITIONAL_ONLY,
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
    )
    return sum(kind in positional for kind in kinds)


def default_plan(
    chain: CompiledChain, machine: str = "client-host"
) -> PlacementPlan:
    """The prototype's placement: every element in the client-side mRPC
    engine (the paper's §6 setup compiles the chain into engine modules
    on the sender)."""
    segment = PlacementSegment(
        platform=Platform.MRPC,
        machine=machine,
        elements=chain.element_order,
        stages=chain.ir.stages,
    )
    return PlacementPlan(
        segments=[segment],
        description="all elements in the client-side mRPC engine",
    )


class Route(NamedTuple):
    """One placement compiled for the per-RPC walk.

    ``steps`` lists the processors in request order, with the wire
    between the client-side ones and the rest, as ``(processor, request
    span, response span, answered by)``: the wire's processor is None,
    and *answered by* puts the response on the wire when the request
    turns around there. A request walks the steps forward to its
    turnaround (the server, or the processor that dropped it) and its
    response walks back, so it crosses the wire both ways exactly when
    the turnaround lies past it. The other fields are what the walk
    charges: each side's transport, each direction's codec with its
    transport CPU, and the cores of a server-side SmartNIC that owns
    receive-side dispatch.
    """

    steps: Tuple[
        Tuple[Optional[ProcessorRuntime], str, str, Optional[Resource]], ...
    ]
    client_transport: Resource
    server_transport: Resource
    #: (codec, transport CPU in µs) for each direction
    request_wire: Tuple[AdnWireCodec, float]
    response_wire: Tuple[AdnWireCodec, float]
    nic_rx: Optional[Resource]


class AdnMrpcStack:
    """A runnable ADN RPC path. Use ``stack.call(**fields)`` as the
    workload generator's call function."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        chain: CompiledChain,
        schema: RpcSchema,
        registry: FunctionRegistry,
        plan: Optional[PlacementPlan] = None,
        handcoded: bool = False,
        client_service: str = "A",
        server_service: str = "B",
        server_replicas: int = 1,
        filters: Optional[Sequence] = None,
        filter_order: Optional[Sequence[str]] = None,
        guarantees=None,
        server_handler=None,
        tracing: bool = False,
        retry_policy=None,
        queue_limit: Optional[int] = None,
        admission: Optional[AdmissionConfig] = None,
        retry_budget: Optional[RetryBudgetConfig] = None,
        circuit_breaker: Optional[CircuitBreakerPolicy] = None,
        client_machine: str = "client-host",
        server_machine: str = "server-host",
        client_thread: str = "client-app",
        server_thread: str = "server-app",
        l2_tag: str = "",
        propagate_deadline: bool = False,
        app_reads: Optional[FrozenSet[str]] = None,
        sanitizer=None,
    ):
        self.sim = sim
        self.cluster = cluster
        self.chain = chain
        self.schema = schema
        self.registry = registry
        #: which hosts this hop's two endpoints live on. The historical
        #: single-hop stack always spanned client-host -> server-host;
        #: a service graph instantiates one stack per RPC edge, each on
        #: the machines its placement assigned (repro.graph).
        self.client_machine = client_machine
        self.server_machine = server_machine
        self.client_thread = client_thread
        self.server_thread = server_thread
        #: distinguishes this stack's L2 endpoints when several stacks
        #: share a service name on one cluster (fan-out edges out of one
        #: service each need their own inbox)
        self.l2_tag = l2_tag
        plan = plan or default_plan(chain, machine=client_machine)
        #: epoch fence (repro.control.resilience): the newest
        #: configuration epoch this stack has accepted. ``apply_plan``
        #: rejects epoch-carrying plans that are not strictly newer —
        #: the defense against a deposed controller double-applying a
        #: superseded placement. Legacy epoch-0 plans stay unfenced.
        self.config_epoch = plan.epoch
        self.fence_epochs = True
        self.stale_plans_rejected = 0
        #: only ever nonzero with ``fence_epochs`` off (the split-brain
        #: baseline the resilience benchmark compares against)
        self.stale_plans_applied = 0
        self.costs = cluster.costs
        self.handcoded = handcoded
        self.client_service = client_service
        self.server_service = server_service
        self.server_replicas = server_replicas
        #: requested delivery guarantees (GuaranteeDecl or None): ordered
        #: adds a seq field to every hop header, reliable an ack field
        self.guarantees = guarantees
        #: optional application logic at the destination: a generator
        #: function(request_row) that may itself call other stacks (a
        #: microservice calling downstream services) and returns a dict
        #: of application-field overrides for the response
        self.server_handler = server_handler
        #: when set, every outcome carries notes["trace"]: a list of
        #: (span_name, enter_s, exit_s) covering processors and hops
        #: (§5.3: processors report tracing information)
        self.tracing = tracing
        self._next_seq = 0
        self._last_seq_seen = -1
        self.out_of_order_detected = 0
        registry.bind_clock(lambda: sim.now)
        #: does the handler want the propagated absolute deadline too?
        #: (graph service handlers derive child-RPC budgets from it)
        self._handler_takes_deadline = (
            server_handler is not None
            and _handler_arity(server_handler) >= 2
        )

        self.client_app: Resource = cluster.machine(client_machine).thread(
            self.client_thread
        )
        self.server_app: Resource = cluster.machine(server_machine).thread(
            self.server_thread, capacity=max(1, server_replicas)
        )
        #: shadow exactly-once/divergence checker (repro.state), shared
        #: across the path's processors; replicas of this stack's element
        #: instances group under the stack identity (its l2 tag, else the
        #: service pair) so independent per-edge instances never compare
        self.sanitizer = sanitizer
        self._sanitizer_instance = (
            l2_tag or f"{client_service}->{server_service}"
        )
        #: overload-control configuration (repro.overload): bounded
        #: queues + admission control on every processor, and deadline
        #: propagation on the wire whenever a retry policy on the path,
        #: ``retry_policy`` or a declared filter's, carries a deadline
        #: budget (the budget IS the deadline being propagated).
        self._queue_limit = queue_limit
        self._admission_config = admission
        policies = [retry_policy, *map(lower_filter, filters or ())]
        self._propagate_deadline = propagate_deadline or any(
            getattr(policy, "deadline_budget_ms", None) is not None
            for policy in policies
        )
        #: mesh-proven application reads at the destination (None:
        #: assume every schema field) — narrows the request hop header
        #: exactly like repro.analysis.graph computed it
        self._app_reads = app_reads
        self.processors: List[ProcessorRuntime] = []
        self._install(plan)
        self.wire_bytes_total = 0
        self.mirrored_total = 0
        #: fault observability (repro.faults): attempts that vanished
        #: into a crashed machine / dropped frame, by where they died,
        #: and server-side logic runs beyond the first per logical RPC
        self.rpcs_lost = 0
        self.lost_by: Dict[str, int] = {}
        #: requests whose propagated deadline expired in flight, caught
        #: at the server boundary before application service time
        self.deadline_expired_at_server = 0
        self.duplicate_server_executions = 0
        self._server_executions: Dict[object, int] = {}
        self._attach_l2()
        # stream-shaping filters (retries, timeouts, ...) wrap the path;
        # ``call`` is what workload generators should drive. The retry
        # policy sits innermost (closest to the raw path) so declared
        # filters shape already-reliable calls.
        base = self.call_raw
        self.retry_stats = None
        self.retry_budget: Optional[RetryBudget] = (
            RetryBudget(retry_budget) if retry_budget is not None else None
        )
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(sim, circuit_breaker)
            if circuit_breaker is not None
            else None
        )
        if retry_policy is not None:
            from .filters import RetryStats, wrap_retry_policy

            self.retry_stats = RetryStats()
            base = wrap_retry_policy(
                self.sim,
                base,
                retry_policy,
                stats=self.retry_stats,
                budget=self.retry_budget,
                breaker=self.breaker,
                propagate_deadline=self._propagate_deadline,
                sanitizer=sanitizer,
            )
        if filters:
            from .filters import apply_filters

            self.call = apply_filters(
                self.sim, base, list(filters), order=filter_order
            )
        else:
            self.call = base

    # -- setup -----------------------------------------------------------

    def _install(self, plan: PlacementPlan) -> None:
        """Build ``plan``'s processors and compile it into the
        :class:`Route` every RPC issued from now on walks (at
        construction and on every :meth:`apply_plan`). A plan whose
        client-side segments do not all come first is refused before
        anything changes."""
        # the wire lies between the client-side segments and the rest
        client_side = [
            segment.machine == self.client_machine for segment in plan.segments
        ]
        wire_at = sum(client_side)
        if any(client_side[wire_at:]):
            raise PlacementError(
                f"a segment on {self.client_machine!r} follows one past "
                "the wire: client-side segments come first"
            )
        # superseded processors' frozen state must not feed the sanitizer
        for processor in self.processors:
            processor.detach_sanitizer()
        self.plan = plan
        processors = [
            ProcessorRuntime(
                self.sim, self.cluster, segment, self.chain, self.registry,
                self.handcoded,
                sanitizer=self.sanitizer,
                sanitizer_instance=self._sanitizer_instance,
            )
            for segment in plan.segments
        ]
        self.processors = processors
        nic_rx = self._configure_overload(processors)
        replicas = [
            f"{self.server_service}.{index + 1}"
            for index in range(self.server_replicas)
        ]
        # each direction's codec, with the CPU for putting one message on
        # the wire or taking it off (receive costs are symmetric)
        request_wire, response_wire = (
            (codec, self.costs.mrpc_tcp_batched_us
             + self.costs.header_codec_us(len(codec.layout.fields)))
            for codec in self._build_codecs()
        )
        client_transport, server_transport = (
            self.cluster.machine(machine).thread("mrpc-engine")
            if mode == "engine"
            else app  # proxyless: the app thread owns the wire
            for machine, mode, app in (
                (self.client_machine, plan.client_transport, self.client_app),
                (self.server_machine, plan.server_transport, self.server_app),
            )
        )
        steps = []
        for processor, near in zip(processors, client_side):
            segment = processor.segment
            for name in segment.elements:  # seed load balancers
                if "endpoints" in {
                    decl.name for decl in self.chain.elements[name].ir.states
                }:
                    processor.seed_endpoints(name, replicas)
            where = f"{segment.platform.value}@{segment.machine}"
            # who answers a request turned around here: a server-side
            # device answers itself, so its cores (NIC) or nobody (switch,
            # line rate) pay, never the host — the economics of shedding
            # in the network instead of on the server
            answered_by = (
                processor.resource
                if segment.platform.is_hardware and not near
                else server_transport
            )
            steps.append(
                (processor, f"request:{where}", f"response:{where}",
                 answered_by)
            )
        steps.insert(
            wire_at, (None, "wire:forward", "wire:return", server_transport)
        )
        self._route = Route(
            steps=tuple(steps),
            client_transport=client_transport,
            server_transport=server_transport,
            request_wire=request_wire,
            response_wire=response_wire,
            nic_rx=nic_rx,
        )

    def _configure_overload(
        self, processors: List[ProcessorRuntime]
    ) -> Optional[Resource]:
        """Apply stack-level overload controls to a processor set: bound
        every processor's queue and install an admission controller per
        processor. Meta-driven installs (the stdlib ``AdmissionControl``
        element) happen inside ProcessorRuntime and win only when the
        stack itself does not configure admission.

        Returns the cores of the server-side SmartNIC processor, if the
        plan placed one: it owns receive-side dispatch for this hop."""
        nic_rx = None
        for processor in processors:
            if processor.resource is None:
                continue  # switch pipeline: line rate, nothing queues
            receive_side = (
                processor.segment.platform is Platform.SMARTNIC
                and processor.segment.machine == self.server_machine
            )
            if receive_side and nic_rx is None:
                nic_rx = processor.resource
            if self._queue_limit is not None:
                processor.resource.queue_limit = self._queue_limit
                if processor.segment.queue_limit is None:
                    processor.segment.queue_limit = self._queue_limit
            if self._admission_config is not None:
                monitor = processor.resource
                if receive_side:
                    # receive-side dispatching: the NIC sits in front of
                    # the host and sheds on the *host engine's*
                    # backpressure, not its own (its match-action cores
                    # are never the bottleneck) — that is what makes a
                    # NIC shed nearly free for the host
                    monitor = self.cluster.machine(
                        self.server_machine
                    ).thread("mrpc-engine")
                processor.install_admission(
                    AdmissionController(
                        self.sim, monitor, self._admission_config
                    )
                )
        return nic_rx

    def _build_codecs(self) -> Tuple[AdnWireCodec, AdnWireCodec]:
        """Request and response codecs for the client→server wire hop,
        from the minimal header plans (per direction) at the last
        client-side chain position."""
        locations = self.plan.element_locations()
        boundary = -1
        for index, name in enumerate(self.chain.element_order):
            if name in locations and locations[name][1] == self.client_machine:
                boundary = index
        self.hop_plan = plan_hop_headers(
            self.chain.ir, self.schema, [boundary],
            guarantees=self.guarantees,
            deadline=self._propagate_deadline,
            app_reads=self._app_reads,
        )[0]
        self.response_hop_plan = plan_hop_headers(
            self.chain.ir, self.schema, [boundary], kind="response",
            guarantees=self.guarantees,
        )[0]
        return (
            AdnWireCodec(self.hop_plan.layout),
            AdnWireCodec(self.response_hop_plan.layout),
        )

    def _attach_l2(self) -> None:
        """Attach both hosts' engines to the cluster's flat-identifier
        virtual link layer (the only network service ADN assumes, §3)."""
        tag = f"#{self.l2_tag}" if self.l2_tag else ""
        #: (client endpoint, server endpoint)
        self._l2_names = (
            f"{self.client_service}.0/engine{tag}",
            f"{self.server_service}/engine{tag}",
        )
        for name in self._l2_names:
            if self.cluster.l2.resolve(name) is None:
                # the path reads each delivered frame off ``send``
                self.cluster.l2.attach(name, lambda frame: None)

    def _l2_transmit(self, forward: bool, payload: bytes) -> Optional[bytes]:
        """Push one encoded message over the virtual L2 to the other
        side; returns the bytes as delivered there, or None when the
        frame died en route (partition or loss)."""
        src, dst = self._l2_names if forward else self._l2_names[::-1]
        frame = self.cluster.l2.send(src, dst, payload)
        return None if frame is None else frame.payload

    # -- helpers ------------------------------------------------------------

    def _cross(
        self, route: Route, message: Row, forward: bool,
        sender: Optional[Resource], deadline_at: Optional[float],
    ) -> Generator:
        """Carry one message over the wire, either way: the sender's
        transport CPU (a switch answering at line rate has no sender),
        the wire time, then what the far side actually receives — the
        tuple encoded with the hop's minimal header layout and decoded
        again, so a layout bug shows up as behavioural divergence, not
        just a wrong byte count. Returns ``(when the wire hop started,
        the received tuple, the deadline the receiver computes)``.

        With deadline propagation on, the *remaining* budget (ms) rides
        the request header (gRPC-style — relative budgets survive clock
        skew that absolute timestamps would not) and the receiver
        rebuilds an absolute deadline strictly from it. -1 is the "no
        deadline" sentinel, distinct from 0 = already expired.
        """
        codec, cpu_us = route.request_wire if forward else route.response_wire
        if sender is not None:
            yield from sender.use(cpu_us * US)
        extra = self.costs.mrpc_tcp_unbatched_extra_us
        if extra:
            yield self.sim.timeout(extra * US)
        started = self.sim.now
        # the deadline and sequence fields added below are fixed-width
        # fields the layout already counts
        size = wire_bytes_for_message(codec.encoded_size(message))
        self.wire_bytes_total += size
        # a latency-spike fault stretches every hop while it is active
        extra_us = self.cluster.l2.conditions.extra_latency_us
        yield self.sim.timeout((self.costs.wire_us(size) + extra_us) * US)
        outbound = dict(message)
        if forward:
            if getattr(self.guarantees, "ordered", False):
                self._next_seq += 1
                outbound["seq"] = self._next_seq
            if self._propagate_deadline:
                outbound[DEADLINE_FIELD] = (
                    max(0.0, (deadline_at - self.sim.now) * 1e3)
                    if deadline_at is not None
                    else -1.0
                )
        far = self.server_machine if forward else self.client_machine
        if not self.cluster.machine_up(far):
            # blackholed: nothing is listening on the far side
            yield from self._lost(f"crash:{far}")
        delivered = self._l2_transmit(forward, codec.encode(outbound))
        if delivered is None:
            yield from self._lost("wire:forward" if forward else "wire:return")
        # transport-external context (e.g. `method`, if no downstream
        # element reads it) is intentionally absent; readers get the
        # layout's defaults
        received = codec.decode(delivered)
        if not forward:
            return started, received, deadline_at
        if "seq" in received:
            if received["seq"] <= self._last_seq_seen:
                self.out_of_order_detected += 1
            self._last_seq_seen = received["seq"]
        remaining_ms = (
            received.get(DEADLINE_FIELD) if self._propagate_deadline else None
        )
        if remaining_ms is None or float(remaining_ms) < 0.0:
            return started, received, None
        return started, received, self.sim.now + float(remaining_ms) * 1e-3

    def _lost(self, where: str) -> Generator:
        """This attempt just vanished (crashed host or dropped frame):
        park its process forever, like a real blackholed packet. Only a
        caller-side per-attempt timeout (:class:`RetryPolicy`) turns the
        silence into a visible, retryable abort — which is exactly the
        "no silent loss requires retries" property the fault tests pin.

        Never call this while holding a Resource — lost attempts must
        not wedge a thread pool.
        """
        self.rpcs_lost += 1
        self.lost_by[where] = self.lost_by.get(where, 0) + 1
        yield self.sim.event()  # never fires

    # -- the path -----------------------------------------------------------------

    def call_raw(self, **fields: object) -> Generator:
        """Issue one RPC through the raw path (no stream-shaping
        filters); returns an :class:`RpcOutcome`.

        The RPC walks the route installed when it was issued: forward
        over its steps to the turnaround, then back. An element that
        drops the request turns it around at its processor, which
        re-runs on the way back iff anything inside it (an earlier
        element, or an earlier member of a fused element) already
        executed — its response handlers must see the abort."""
        issued_at = self.sim.now
        route = self._route
        costs = self.costs
        # the caller's absolute deadline (wrap_retry_policy injects it
        # when the policy has a deadline budget); it crosses the wire as
        # a remaining-ms header field, never as an application field
        deadline_at = fields.pop("deadline_at", None)
        if deadline_at is not None:
            deadline_at = float(deadline_at)  # type: ignore[arg-type]
        request = make_request(
            self.schema, f"{self.client_service}.0", self.server_service,
            **fields,
        )
        if self.sanitizer is not None:
            # attempts of one logical RPC share an rpc_id (the retry
            # wrapper pins it), so the counter makes attempt 2+ visible
            # to the sanitizer as duplicate executions; scoped by stack
            # because each stack's wrapper numbers ids independently
            self.sanitizer.note_attempt(
                request.get("rpc_id"), scope=self._sanitizer_instance
            )
        # client app issues into shared memory; the engine picks it up
        yield from self.client_app.use(
            (costs.client_issue_us + costs.mrpc_shm_post_us) * US
        )
        yield from route.client_transport.use(costs.mrpc_dispatch_us * US)

        trace: List[Tuple[str, float, float]] = []
        steps = route.steps
        message: Row = request
        mirrored = 0
        dropped_by: Optional[str] = None
        crossed_wire = False
        # who puts the response on the wire: the server's transport,
        # unless a server-side device turned the request around itself
        answered_by: Optional[Resource] = route.server_transport
        forward = True
        index = 0
        while index >= 0:
            if index == len(steps):
                # the server turnaround
                message, dropped_by = yield from self._serve(
                    route, message, request["rpc_id"], deadline_at
                )
                forward = False
                index -= 1
                continue
            processor, request_span, response_span, turned_by = steps[index]
            span = request_span if forward else response_span
            following = index + 1 if forward else index - 1
            if processor is None:
                sender = route.client_transport if forward else answered_by
                started, message, deadline_at = yield from self._cross(
                    route, message, forward, sender, deadline_at
                )
                crossed_wire = True
            else:
                if not processor.live:
                    yield from self._lost(f"crash:{processor.segment.machine}")
                started = self.sim.now
                if not forward:
                    result = yield from processor.execute("response", message)
                    if result.outputs:
                        message = result.outputs[0]
                else:
                    result = yield from processor.execute(
                        "request", message, deadline_at=deadline_at
                    )
                    mirrored += result.mirrored
                    if not result.dropped_by:
                        message = result.outputs[0]
                    else:
                        dropped_by = result.dropped_by
                        message = make_abort(message, dropped_by)
                        forward = False
                        answered_by = turned_by
                        following = (
                            index if result.dropped_after_entry else index - 1
                        )
            if self.tracing:
                trace.append((span, started, self.sim.now))
            index = following

        if crossed_wire:
            # client engine receives the response off the wire
            yield self.sim.timeout(costs.mrpc_rx_wakeup_extra_us * US)
            yield from route.client_transport.use(route.response_wire[1] * US)
        # client engine delivers to the app
        yield from route.client_transport.use(costs.mrpc_dispatch_us * US)
        yield from self.client_app.use(
            (costs.client_complete_us + costs.mrpc_shm_post_us) * US
        )
        self.mirrored_total += mirrored
        outcome = RpcOutcome(
            request=request, response=message, issued_at=issued_at,
            completed_at=self.sim.now, aborted_by=dropped_by or "",
            mirrored=mirrored,
        )
        if self.tracing:
            outcome.notes["trace"] = trace
        return outcome

    def _serve(
        self, route: Route, request: Row, rpc_id: object,
        deadline_at: Optional[float],
    ) -> Generator:
        """The server end of the walk: take the request off the wire and
        answer it. Returns ``(response, abort reason or None)``; every
        processor on the route sees a server-side abort on its way
        back."""
        if not self.cluster.machine_up(self.server_machine):
            yield from self._lost(f"crash:{self.server_machine}")
        costs = self.costs
        # server engine receives and hands to the app; a server-side
        # NIC segment has already parsed the header and steers the
        # message to its core (receive-side dispatching): the host
        # wakeup shrinks and the dispatch CPU lands on the NIC
        if route.nic_rx is not None:
            yield from route.nic_rx.use(costs.nic_rx_dispatch_us * US)
            yield self.sim.timeout(costs.nic_rx_wakeup_extra_us * US)
        else:
            yield self.sim.timeout(costs.mrpc_rx_wakeup_extra_us * US)
        yield from route.server_transport.use(route.request_wire[1] * US)
        if deadline_at is not None and self.sim.now > deadline_at:
            # the propagated deadline expired in flight: the caller has
            # already given up, so answer with a cheap abort instead of
            # spending application service time
            self.deadline_expired_at_server += 1
            return make_abort(request, DEADLINE_EXPIRED), DEADLINE_EXPIRED
        yield from route.server_transport.use(costs.mrpc_shm_post_us * US)
        # decode exactly what the wire carried (fidelity check lives in
        # tests: the server sees only header-plan fields)
        yield from self.server_app.use(costs.app_logic_us * US)
        # at-least-once bookkeeping: with a retry policy, attempts of one
        # logical RPC share an rpc_id — a retry after the server already
        # ran (response lost coming back) shows here
        executions = self._server_executions.get(rpc_id, 0) + 1
        self._server_executions[rpc_id] = executions
        if executions > 1:
            self.duplicate_server_executions += 1
        if self.server_handler is None:
            return make_response(request), None
        arguments = (
            (request, deadline_at) if self._handler_takes_deadline
            else (request,)
        )
        overrides = dict((yield from self.server_handler(*arguments)) or {})
        # a service handler may fail the whole RPC (e.g. a required
        # downstream call aborted): it turns into an abort at the server
        # boundary, so the caller's retry/breaker machinery sees a real
        # failure
        abort_reason = overrides.pop(ABORT_KEY, None)
        if abort_reason is not None:
            return make_abort(request, str(abort_reason)), str(abort_reason)
        return make_response(request, **overrides), None

    # -- reconfiguration (repro.faults) ---------------------------------------

    def apply_plan(self, new_plan: PlacementPlan) -> List[ProcessorRuntime]:
        """Swap in a re-solved placement (the recovery orchestrator's
        failover step). Returns the replaced processors so the caller
        can deregister them and, for survivors, migrate state out.

        The plan is compiled into a new route, and only RPCs issued from
        now on walk it. An attempt in flight keeps the route it started
        on in both directions: its processors, transports, codecs and
        NIC. Ones routed at a crashed machine die at their next liveness
        checkpoint and come back through the new plan via retries —
        exactly how a real data plane drains a superseded config.

        Epoch fence: a plan carrying an epoch must be strictly newer
        than ``config_epoch`` or it is refused with
        :class:`~repro.errors.StaleEpochError` (counted in
        ``stale_plans_rejected``). Plans with epoch 0 against an
        epoch-0 stack are legacy installs and bypass the fence.
        """
        stale = bool(new_plan.epoch or self.config_epoch) and (
            new_plan.epoch <= self.config_epoch
        )
        if stale and self.fence_epochs:
            self.stale_plans_rejected += 1
            raise StaleEpochError(
                f"stale plan epoch {new_plan.epoch} <= installed "
                f"epoch {self.config_epoch}: refusing to apply "
                "a superseded configuration"
            )
        old = self.processors
        self._install(new_plan)
        if stale:
            self.stale_plans_applied += 1
        self.config_epoch = max(self.config_epoch, new_plan.epoch)
        return old

    # -- accounting -----------------------------------------------------------

    def cpu_busy_by_machine(self) -> Dict[str, float]:
        return self.cluster.cpu_busy_by_machine()

"""ADN processors: placed element groups executing on simulated resources.

A :class:`PlacementSegment` is the controller's decision that a run of
chain elements executes on one platform at one location (paper §5.3: "an
ADN processor might only manage a portion of a processing graph"). The
:class:`ProcessorRuntime` executes that run — *functionally* (real
element logic via the compiled Python modules, so drops, rewrites and
state updates actually happen) while charging the platform's costs to
the right simulation resource.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from ..compiler.compiler import CompiledChain
from ..dsl.functions import FunctionRegistry
from ..errors import PlacementError
from ..overload import DEADLINE_EXPIRED, QUEUE_FULL
from ..overload.admission import AdmissionController, admission_from_meta
from ..platforms import Platform
from ..sim.cluster import Cluster, Machine
from ..sim.costmodel import CostModel
from ..sim.engine import US, Event, Simulator
from ..sim.resources import Resource
from .message import Row

#: machine name used for on-switch segments
SWITCH_LOCATION = "switch"


@dataclass
class PlacementSegment:
    """A contiguous run of chain elements on one platform/location."""

    platform: Platform
    machine: str  # machine name, or SWITCH_LOCATION
    elements: Tuple[str, ...]
    #: parallel stages local to this segment (subset of the chain's)
    stages: Tuple[Tuple[str, ...], ...] = ()
    #: number of replicated processor instances (Figure 2 config 4)
    replicas: int = 1
    #: bound on the processor's wait queue (repro.overload): RPCs
    #: arriving past it are rejected explicitly (``QueueFull``) instead
    #: of waiting forever; None keeps the legacy unbounded queue
    queue_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.stages:
            self.stages = tuple((name,) for name in self.elements)


@dataclass
class PlacementPlan:
    """The full realization of one chain across processors."""

    segments: List[PlacementSegment]
    #: "engine" (mRPC owns the wire) or "proxyless" (the RPC library
    #: itself talks to the kernel), per side
    client_transport: str = "engine"
    server_transport: str = "engine"
    description: str = ""
    #: configuration epoch minted by the controller that solved this
    #: plan; the data plane fences installs whose epoch is not strictly
    #: newer than what it already runs (0 = legacy unfenced plan)
    epoch: int = 0

    def element_locations(self) -> Dict[str, Tuple[Platform, str]]:
        return {
            name: (segment.platform, segment.machine)
            for segment in self.segments
            for name in segment.elements
        }


@dataclass
class SegmentResult:
    """Outcome of pushing one RPC through a segment."""

    outputs: List[Row]
    dropped_by: Optional[str] = None
    #: on a drop: did any element — or any member inside a fused
    #: element — complete before the dropper? Decides whether the abort
    #: turnaround re-traverses this processor's response handlers.
    dropped_after_entry: bool = False
    mirrored: int = 0
    cpu_us: float = 0.0
    extra_us: float = 0.0


class ProcessorRuntime:
    """One placed processor executing a segment's elements."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        segment: PlacementSegment,
        chain: CompiledChain,
        registry: FunctionRegistry,
        handcoded: bool = False,
        sanitizer=None,
        sanitizer_instance: str = "",
    ):
        self.sim = sim
        self.cluster = cluster
        self.segment = segment
        self.chain = chain
        self.registry = registry
        self.costs: CostModel = cluster.costs
        self.handcoded = handcoded
        self._pending_func_us = 0.0
        #: shadow exactly-once checker (repro.state.table.StateSanitizer);
        #: when set, element execution is bracketed with its rpc context
        #: and every instance's state is attached on creation
        self.sanitizer = sanitizer
        self._sanitizer_instance = sanitizer_instance
        self.resource = self._allocate_resource()
        self.instances: Dict[str, object] = {}
        for name in segment.elements:
            compiled = chain.elements[name]
            artifact = compiled.artifact("python")
            self.instances[name] = artifact.factory(
                on_func_call=self._on_func_call
            )
        self._attach_sanitizer()
        self.rpcs_processed = 0
        self.rpcs_dropped = 0
        #: overload-control drop taxonomy (repro.overload): sheds by the
        #: admission controller, bounded-queue rejects, and RPCs dropped
        #: because their propagated deadline had already expired
        self.rpcs_shed = 0
        self.rpcs_queue_rejected = 0
        self.rpcs_deadline_expired = 0
        #: admission controller, if installed — programmatically or by a
        #: hosted element's ``meta { admission_control: true; }``
        self.admission: Optional[AdmissionController] = None
        if segment.queue_limit is not None and self.resource is not None:
            self.resource.queue_limit = segment.queue_limit
        for name in segment.elements:
            controller = admission_from_meta(
                sim, self.resource, chain.elements[name].ir.meta
            )
            if controller is not None:
                self.admission = controller
                break
        #: fault hooks (repro.faults): a pending hang gate, and a cost
        #: multiplier for a degraded (thermal-throttled, noisy-neighbour)
        #: processor
        self.hang_event: Optional[Event] = None
        self.slowdown_factor: float = 1.0
        #: per-element counters for telemetry reports (paper §5.3)
        self.element_processed: Dict[str, int] = {
            name: 0 for name in segment.elements
        }
        self.element_dropped: Dict[str, int] = {
            name: 0 for name in segment.elements
        }

    # -- resources ----------------------------------------------------------

    def _allocate_resource(self) -> Optional[Resource]:
        platform = self.segment.platform
        if platform is Platform.SWITCH_P4:
            if not self.cluster.switch.programmable:
                raise PlacementError(
                    "switch segment placed but the ToR is not programmable"
                )
            self.cluster.switch.installed_elements.extend(self.segment.elements)
            return None
        machine: Machine = self.cluster.machine(self.segment.machine)
        if platform is Platform.SMARTNIC:
            if machine.smartnic_cores is None:
                raise PlacementError(
                    f"machine {machine.name!r} has no SmartNIC"
                )
            return machine.smartnic_cores
        names = {
            Platform.MRPC: "mrpc-engine",
            Platform.RPC_LIB: "app",
            Platform.SIDECAR: "sidecar",
            Platform.KERNEL_EBPF: "kernel",
        }
        return machine.thread(names[platform], capacity=self.segment.replicas)

    def _on_func_call(self, spec, size: int) -> None:
        self._pending_func_us += spec.cost_us + size * spec.cost_per_byte_us

    # -- liveness (repro.faults) --------------------------------------------

    @property
    def live(self) -> bool:
        """False while the hosting machine is crashed: RPCs routed here
        blackhole instead of executing."""
        return self.cluster.machine_up(self.segment.machine)

    @property
    def control_reachable(self) -> bool:
        """False while the hosting machine's control channel is severed
        (CONTROL_PARTITION): the dataplane keeps serving, but telemetry
        reports cannot reach the controller."""
        return self.cluster.control_reachable(self.segment.machine)

    def reset_instances(self) -> None:
        """Re-create every element instance with empty runtime state —
        what a machine restart means for the processors it hosted (init
        blocks re-run; everything accumulated since is gone)."""
        for name in self.segment.elements:
            compiled = self.chain.elements[name]
            artifact = compiled.artifact("python")
            self.instances[name] = artifact.factory(
                on_func_call=self._on_func_call
            )
        self._attach_sanitizer()

    def detach_sanitizer(self) -> None:
        """Unhook this processor's replicas (it was superseded by a
        re-plan; its frozen state must not feed the divergence check)."""
        if self.sanitizer is None:
            return
        for name in self.instances:
            self.sanitizer.detach(
                name,
                instance=self._sanitizer_instance,
                tag=f"{self.segment.machine}/{self.segment.platform.value}",
            )

    def _attach_sanitizer(self) -> None:
        """(Re-)hook every instance's state store into the sanitizer —
        must follow any instance re-creation, or fresh state mutates
        unobserved."""
        if self.sanitizer is None:
            return
        for name, instance in self.instances.items():
            self.sanitizer.attach(
                instance.state,
                element=name,
                instance=self._sanitizer_instance,
                tag=f"{self.segment.machine}/{self.segment.platform.value}",
                module=instance,
            )

    # -- execution -------------------------------------------------------------

    def _element_cost_us(self, name: str, kind: str, func_us: float) -> float:
        analysis = self.chain.elements[name].analysis
        # one dispatch per element — a fused element *is* one element,
        # so its members share a single dispatch by construction
        dispatch = self.costs.element_dispatch_us
        base = dispatch + analysis.handler_cost_us(kind) + func_us
        factor = self.costs.platform_element_factor[self.segment.platform]
        if self.handcoded:
            factor *= self.costs.handcoded_element_factor
        if self.segment.platform is Platform.SIDECAR:
            base += self.costs.wasm_trampoline_us
        if self.segment.platform is Platform.SMARTNIC:
            # per-packet match-action work on the NIC's own cores
            base += self.costs.nic_match_action_us
        return base * factor * self.slowdown_factor

    def _run_functionally(self, kind: str, rpc: Row) -> SegmentResult:
        """Execute the segment's elements on one tuple; returns outputs
        and the computed CPU/latency charges."""
        result = SegmentResult(outputs=[dict(rpc)])
        order = (
            self.segment.elements
            if kind == "request"
            else tuple(reversed(self.segment.elements))
        )
        stages = (
            self.segment.stages
            if kind == "request"
            else tuple(reversed(self.segment.stages))
        )
        stage_costs: List[float] = []
        current = dict(rpc)
        executed = 0
        if self.sanitizer is not None:
            # the whole segment walk below is synchronous (no yields), so
            # a single enter/exit bracket ties every mutation to this RPC
            self.sanitizer.enter(
                rpc.get("rpc_id"), scope=self._sanitizer_instance
            )
        try:
            for stage in stages:
                member_costs: List[float] = []
                for name in stage:
                    if name not in order:
                        continue
                    self._pending_func_us = 0.0
                    instance = self.instances[name]
                    outputs = instance.process(dict(current), kind)
                    member_costs.append(
                        self._element_cost_us(name, kind, self._pending_func_us)
                    )
                    executed += 1
                    self.element_processed[name] += 1
                    if not outputs:
                        if kind == "request":
                            result.dropped_by = name
                            result.dropped_after_entry = (
                                executed > 1
                                or getattr(instance, "fused_progress", 0) > 0
                            )
                            self.element_dropped[name] += 1
                            result.outputs = []
                            stage_costs.append(self._stage_cost(member_costs))
                            result.cpu_us = sum(stage_costs)
                            result.extra_us = self._extra_us(len(order))
                            return result
                        # a dropped response degenerates to forwarding; keep
                        # the current tuple (responses are not re-aborted)
                        outputs = [dict(current)]
                    forward = outputs[0]
                    for extra in outputs[1:]:
                        result.mirrored += 1
                        del extra  # mirrored copies terminate at a shadow sink
                    current = forward
                stage_costs.append(self._stage_cost(member_costs))
        finally:
            if self.sanitizer is not None:
                self.sanitizer.exit()
        result.outputs = [current]
        result.cpu_us = sum(stage_costs)
        result.extra_us = self._extra_us(len(order))
        return result

    def _parallel_capable(self) -> bool:
        return self.resource is not None and self.resource.capacity > 1

    def _stage_cost(self, member_costs: List[float]) -> float:
        """CPU charge for one stage: concurrent members overlap (pay the
        max) when the platform has spare capacity, else serialize."""
        if self._parallel_capable() and member_costs:
            return max(member_costs)
        return sum(member_costs)

    def _extra_us(self, element_count: int) -> float:
        per_element = self.costs.platform_element_extra_us[self.segment.platform]
        if self.segment.platform is Platform.SIDECAR:
            # crossing into the sidecar process costs once per traversal,
            # not per element
            return per_element
        extra = per_element * element_count
        if self.segment.platform.is_hardware:
            # a chain longer than the device pipeline recirculates: every
            # extra pass re-crosses the whole match-action pipeline
            from ..offload.device import device_profile_for

            profile = device_profile_for(self.segment.platform)
            passes = profile.recirculations(element_count) if profile else 0
            if passes:
                per_pass = (
                    self.costs.nic_recirculate_extra_us
                    if self.segment.platform is Platform.SMARTNIC
                    else self.costs.switch_recirculate_extra_us
                )
                extra += passes * per_pass
        return extra

    def install_admission(self, controller: AdmissionController) -> None:
        """Install (or replace) this processor's admission controller."""
        self.admission = controller

    def _overload_drop(self, reason: str) -> SegmentResult:
        """An RPC rejected before any element ran: no service time was
        spent (that is the whole point — shed early, shed cheap), the
        abort turnaround starts here."""
        self.rpcs_dropped += 1
        if reason == QUEUE_FULL:
            self.rpcs_queue_rejected += 1
        elif reason == DEADLINE_EXPIRED:
            self.rpcs_deadline_expired += 1
        else:
            self.rpcs_shed += 1
        return SegmentResult(
            outputs=[], dropped_by=reason, dropped_after_entry=False
        )

    def execute(
        self, kind: str, rpc: Row, deadline_at: Optional[float] = None
    ) -> Generator:
        """Simulation process: queue on the platform resource, execute,
        hold for the computed service time. Returns a SegmentResult.

        Requests pass three overload gates *before* queueing or spending
        service time: the propagated deadline (an expired RPC's caller
        has already given up — completing it is pure waste), the
        admission controller (CoDel / utilization shedding), and the
        bounded queue (explicit ``QueueFull`` reject at the limit).
        """
        while self.hang_event is not None:
            # hung: park until the injector resumes us (the loop re-checks
            # in case a second hang lands the instant the first lifts)
            yield self.hang_event
        self.rpcs_processed += 1
        if kind == "request":
            if deadline_at is not None and self.sim.now > deadline_at:
                return self._overload_drop(DEADLINE_EXPIRED)
            if self.admission is not None and self.resource is not None:
                reason = self.admission.admit(rpc)
                if reason is not None:
                    return self._overload_drop(reason)
            if self.resource is not None and not self.resource.can_enqueue:
                self.resource.reject()
                return self._overload_drop(QUEUE_FULL)
        if self.resource is None:
            # switch pipeline: line rate, latency only
            result = self._run_functionally(kind, rpc)
            total_extra = result.extra_us + result.cpu_us  # pipeline delay
            if total_extra > 0:
                yield self.sim.timeout(total_extra * US)
            result.cpu_us = 0.0
            if result.dropped_by:
                self.rpcs_dropped += 1
            return result
        yield self.resource.request()
        try:
            result = self._run_functionally(kind, rpc)
            if result.cpu_us > 0:
                yield self.sim.timeout(result.cpu_us * US)
            self.resource.busy_time += result.cpu_us * US
            self.resource.served += 1
        finally:
            self.resource.release()
        if result.extra_us > 0:
            yield self.sim.timeout(result.extra_us * US)
        if result.dropped_by:
            self.rpcs_dropped += 1
        return result

    # -- state access for the controller ------------------------------------------

    def element_state(self, name: str):
        """The StateStore of one element instance (controller-facing)."""
        return self.instances[name].state

    def seed_endpoints(self, element: str, replicas: List[str]) -> None:
        """Install the replica set into a load balancer's endpoints table
        (what the controller does when Deployments change)."""
        table = self.element_state(element).table("endpoints")
        table.clear()
        for index, replica in enumerate(replicas):
            table.insert_values([index, replica])

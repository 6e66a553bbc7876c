"""Service-graph topology: services, RPC edges, per-edge chains.

The paper pitches per-application networks for *microservice meshes*,
and real meshes are DAGs of tens of services (bookinfo, online-boutique,
hotel-reservation), not one client→server chain. A
:class:`ServiceGraph` is the layer above the element DSL: it names the
services, the RPC edges between them, and the element chain attached to
each edge — the unit everything downstream consumes (placement solve per
edge under shared machines, one runnable hop per edge, mesh workload at
the entry services).

Build one three ways:

* the fluent :class:`GraphBuilder` (``examples/bookinfo.py``);
* a JSON topology spec (:meth:`ServiceGraph.from_json`, what
  ``python -m repro graph`` loads);
* directly from :class:`ServiceSpec`/:class:`EdgeSpec` values.

Validation is structural (endpoints exist, no duplicate or self edges,
acyclic) plus semantic against a compiled program/schema
(:meth:`ServiceGraph.check_chains`): every attached element must exist
and compile against the RPC schema, exactly like a ``chain`` clause in
an ``app`` block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import GraphError

EdgeKey = Tuple[str, str]


@dataclass(frozen=True)
class ServiceSpec:
    """One service in the application graph."""

    name: str
    #: server-side application replicas (sets the app thread capacity)
    replicas: int = 1
    #: pin the service to a machine; ``None`` lets the graph placement
    #: solve assign one
    machine: Optional[str] = None
    #: application schema fields this service's *logic* consumes.
    #: ``None`` means undeclared — the interprocedural analyzer then
    #: conservatively assumes the service reads every application field.
    #: Declaring reads is what lets mesh-wide dead-field elimination
    #: shrink the wire headers feeding this service.
    reads: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.reads is not None and not isinstance(self.reads, tuple):
            object.__setattr__(self, "reads", tuple(self.reads))

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.replicas != 1:
            out["replicas"] = self.replicas
        if self.machine is not None:
            out["machine"] = self.machine
        if self.reads is not None:
            out["reads"] = list(self.reads)
        return out


@dataclass(frozen=True)
class EdgeSpec:
    """One RPC edge ``src -> dst`` with its attached element chain and
    the per-edge reliability/overload profile the runtime realizes.

    The deadline knobs mirror the single-hop stack: a
    ``deadline_budget_ms`` bounds the *logical* call on this edge and is
    what the wire header propagates downstream; retries happen only when
    ``max_attempts > 1``. ``admission``/``queue_limit``/``breaker`` turn
    on the PR-5 overload machinery for this edge's processors.
    """

    src: str
    dst: str
    elements: Tuple[str, ...] = ()
    #: overall budget for one logical call over this edge (ms); also the
    #: value propagated on the wire so downstream hops inherit it
    deadline_budget_ms: Optional[float] = None
    #: total attempts per logical call (1 = no retries)
    max_attempts: int = 1
    per_attempt_timeout_ms: Optional[float] = None
    #: install a CoDel-style admission controller on this edge's
    #: processors
    admission: bool = False
    queue_limit: Optional[int] = None
    #: client-side circuit breaker + token-bucket retry budget
    breaker: bool = False
    #: a failed call on this edge fails the parent RPC; optional edges
    #: (e.g. recommendations) degrade the answer instead
    required: bool = True
    #: fields the admission controller hashes for fate-coherent shedding
    #: (empty: the runtime's default config applies); sibling edges that
    #: shed on different fields split one logical request's fate —
    #: ADN604 checks this statically
    hash_fields: Tuple[str, ...] = ()
    #: offload tier for this edge's chain: "nic" or "switch" splits the
    #: device-legal element prefix onto the hardware in front of the
    #: destination host (repro.offload); None keeps the software solve
    offload: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.elements, str):
            raise GraphError(
                f"edge {self.src}->{self.dst}: elements must be a list of "
                f"element names, got the string {self.elements!r}"
            )
        if not isinstance(self.elements, tuple):
            object.__setattr__(self, "elements", tuple(self.elements))
        for element in self.elements:
            if not isinstance(element, str) or not element:
                raise GraphError(
                    f"edge {self.src}->{self.dst}: element names must be "
                    f"non-empty strings, got {element!r}"
                )
        if not isinstance(self.hash_fields, tuple):
            object.__setattr__(self, "hash_fields", tuple(self.hash_fields))
        if self.offload is not None and self.offload not in (
            "nic", "switch"
        ):
            raise GraphError(
                f"edge {self.src}->{self.dst}: unknown offload tier "
                f"{self.offload!r} (choose 'nic' or 'switch')"
            )

    @property
    def key(self) -> EdgeKey:
        return (self.src, self.dst)

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"

    @property
    def retries(self) -> bool:
        return self.max_attempts > 1

    def to_dict(self) -> dict:
        out: dict = {"src": self.src, "dst": self.dst}
        if self.elements:
            out["elements"] = list(self.elements)
        for key, default in (
            ("deadline_budget_ms", None),
            ("max_attempts", 1),
            ("per_attempt_timeout_ms", None),
            ("admission", False),
            ("queue_limit", None),
            ("breaker", False),
            ("required", True),
            ("offload", None),
        ):
            value = getattr(self, key)
            if value != default:
                out[key] = value
        if self.hash_fields:
            out["hash_fields"] = list(self.hash_fields)
        return out


@dataclass
class ServiceGraph:
    """A validated application graph (services + RPC edges, a DAG)."""

    name: str
    services: Dict[str, ServiceSpec] = field(default_factory=dict)
    edges: List[EdgeSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._validate_structure()

    # -- structure -----------------------------------------------------------

    def _validate_structure(self) -> None:
        seen: set = set()
        for edge in self.edges:
            if edge.src not in self.services:
                raise GraphError(
                    f"graph {self.name!r}: edge {edge.name} references "
                    f"unknown service {edge.src!r}"
                )
            if edge.dst not in self.services:
                raise GraphError(
                    f"graph {self.name!r}: edge {edge.name} references "
                    f"unknown service {edge.dst!r}"
                )
            if edge.src == edge.dst:
                raise GraphError(
                    f"graph {self.name!r}: self-edge {edge.name} "
                    "(a service does not RPC itself)"
                )
            if edge.key in seen:
                raise GraphError(
                    f"graph {self.name!r}: duplicate edge {edge.name}"
                )
            if edge.max_attempts < 1:
                raise GraphError(
                    f"graph {self.name!r}: edge {edge.name} needs "
                    "max_attempts >= 1"
                )
            seen.add(edge.key)
        self.topological_order()  # raises on cycles

    def topological_order(self) -> List[str]:
        """Services ordered callers-first; raises :class:`GraphError`
        naming a cycle member if the graph is not a DAG."""
        indegree: Dict[str, int] = {name: 0 for name in self.services}
        for edge in self.edges:
            indegree[edge.dst] += 1
        ready = sorted(name for name, deg in indegree.items() if deg == 0)
        order: List[str] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for edge in self.outgoing(current):
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    # insertion keeps `ready` sorted: deterministic order
                    position = 0
                    while (
                        position < len(ready)
                        and ready[position] < edge.dst
                    ):
                        position += 1
                    ready.insert(position, edge.dst)
        if len(order) != len(self.services):
            stuck = sorted(set(self.services) - set(order))
            raise GraphError(
                f"graph {self.name!r} has a cycle through "
                f"{', '.join(stuck)} (service graphs must be DAGs)"
            )
        return order

    # -- queries -------------------------------------------------------------

    def edge(self, src: str, dst: str) -> EdgeSpec:
        for candidate in self.edges:
            if candidate.key == (src, dst):
                return candidate
        raise GraphError(f"graph {self.name!r}: no edge {src}->{dst}")

    def outgoing(self, service: str) -> List[EdgeSpec]:
        return [edge for edge in self.edges if edge.src == service]

    def incoming(self, service: str) -> List[EdgeSpec]:
        return [edge for edge in self.edges if edge.dst == service]

    def entry_services(self) -> List[str]:
        """Services no other service calls — where external load lands."""
        called = {edge.dst for edge in self.edges}
        return [name for name in self.services if name not in called]

    def leaf_services(self) -> List[str]:
        return [name for name in self.services if not self.outgoing(name)]

    def depth(self) -> int:
        """Longest call path, in hops."""
        depth: Dict[str, int] = {}
        for service in reversed(self.topological_order()):
            children = self.outgoing(service)
            depth[service] = (
                1 + max(depth[e.dst] for e in children) if children else 0
            )
        return max(depth.values(), default=0)

    def with_edge(self, src: str, dst: str, **overrides) -> "ServiceGraph":
        """A copy of the graph with one edge's spec fields replaced."""
        edges = [
            replace(edge, **overrides) if edge.key == (src, dst) else edge
            for edge in self.edges
        ]
        return ServiceGraph(
            name=self.name, services=dict(self.services), edges=edges
        )

    # -- semantic validation -------------------------------------------------

    def check_chains(self, program, schema=None) -> List[str]:
        """Validate every edge's attached chain against the program
        (unknown element or filter names). Returns error strings instead
        of raising so a topology report can show them all at once.
        Schema mismatches surface when the chain is compiled; name
        resolution is the mistake a topology author actually makes
        (``schema`` is accepted for call-site symmetry with the
        compile path and is unused here)."""
        known = set(program.elements) | set(program.filters)
        errors: List[str] = []
        for edge in self.edges:
            for element_name in edge.elements:
                if element_name not in known:
                    errors.append(
                        f"edge {edge.name}: unknown element "
                        f"{element_name!r}"
                    )
        return errors

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "services": [
                self.services[name].to_dict() for name in self.services
            ],
            "edges": [edge.to_dict() for edge in self.edges],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceGraph":
        if not isinstance(data, dict):
            raise GraphError("topology spec must be a JSON object")
        name = data.get("name")
        if not name or not isinstance(name, str):
            raise GraphError("topology spec needs a string 'name'")
        services: Dict[str, ServiceSpec] = {}
        for raw in data.get("services", ()):
            if isinstance(raw, str):
                raw = {"name": raw}
            if not isinstance(raw, dict) or "name" not in raw:
                raise GraphError(
                    "each service must be a name or an object with one"
                )
            reads = raw.get("reads")
            spec = ServiceSpec(
                name=str(raw["name"]),
                replicas=int(raw.get("replicas", 1)),
                machine=raw.get("machine"),
                reads=(
                    tuple(str(f) for f in reads)
                    if reads is not None
                    else None
                ),
            )
            if spec.name in services:
                raise GraphError(f"duplicate service {spec.name!r}")
            services[spec.name] = spec
        edges: List[EdgeSpec] = []
        for raw in data.get("edges", ()):
            if not isinstance(raw, dict):
                raise GraphError("each edge must be a JSON object")
            unknown = set(raw) - {
                "src", "dst", "elements", "deadline_budget_ms",
                "max_attempts", "per_attempt_timeout_ms", "admission",
                "queue_limit", "breaker", "required", "hash_fields",
                "offload",
            }
            if unknown:
                raise GraphError(
                    f"edge {raw.get('src')}->{raw.get('dst')}: unknown "
                    f"key(s) {', '.join(sorted(map(str, unknown)))}"
                )
            if "src" not in raw or "dst" not in raw:
                raise GraphError("each edge needs 'src' and 'dst'")
            deadline = raw.get("deadline_budget_ms")
            timeout = raw.get("per_attempt_timeout_ms")
            queue_limit = raw.get("queue_limit")
            edges.append(
                EdgeSpec(
                    src=str(raw["src"]),
                    dst=str(raw["dst"]),
                    elements=tuple(raw.get("elements", ())),
                    deadline_budget_ms=(
                        float(deadline) if deadline is not None else None
                    ),
                    max_attempts=int(raw.get("max_attempts", 1)),
                    per_attempt_timeout_ms=(
                        float(timeout) if timeout is not None else None
                    ),
                    admission=bool(raw.get("admission", False)),
                    queue_limit=(
                        int(queue_limit) if queue_limit is not None else None
                    ),
                    breaker=bool(raw.get("breaker", False)),
                    required=bool(raw.get("required", True)),
                    hash_fields=tuple(
                        str(f) for f in raw.get("hash_fields", ())
                    ),
                    offload=(
                        str(raw["offload"])
                        if raw.get("offload") is not None
                        else None
                    ),
                )
            )
        return cls(name=name, services=services, edges=edges)

    @classmethod
    def from_json(cls, text: str) -> "ServiceGraph":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise GraphError(f"invalid topology JSON: {error}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "ServiceGraph":
        with open(path) as handle:
            return cls.from_json(handle.read())


class GraphBuilder:
    """Fluent construction of a :class:`ServiceGraph`.

    >>> graph = (GraphBuilder("bookinfo")
    ...          .service("productpage")
    ...          .service("reviews", replicas=2)
    ...          .edge("productpage", "reviews",
    ...                elements=("Logging",), deadline_budget_ms=20.0)
    ...          .build())
    """

    def __init__(self, name: str):
        self._name = name
        self._services: Dict[str, ServiceSpec] = {}
        self._edges: List[EdgeSpec] = []

    def service(
        self,
        name: str,
        replicas: int = 1,
        machine: Optional[str] = None,
        reads: Optional[Sequence[str]] = None,
    ) -> "GraphBuilder":
        if name in self._services:
            raise GraphError(f"duplicate service {name!r}")
        self._services[name] = ServiceSpec(
            name=name,
            replicas=replicas,
            machine=machine,
            reads=tuple(reads) if reads is not None else None,
        )
        return self

    def edge(
        self,
        src: str,
        dst: str,
        elements: Sequence[str] = (),
        **spec_fields,
    ) -> "GraphBuilder":
        """Add ``src -> dst``; implicitly declares unseen endpoints as
        plain single-replica services."""
        for endpoint in (src, dst):
            if endpoint not in self._services:
                self._services[endpoint] = ServiceSpec(name=endpoint)
        self._edges.append(
            EdgeSpec(src=src, dst=dst, elements=tuple(elements), **spec_fields)
        )
        return self

    def build(self) -> ServiceGraph:
        return ServiceGraph(
            name=self._name,
            services=dict(self._services),
            edges=list(self._edges),
        )

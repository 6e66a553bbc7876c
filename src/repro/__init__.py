"""repro — a reproduction of *Application Defined Networks* (HotNets '23).

ADN replaces the general-purpose protocol stack under microservice RPCs
with a fully application-specific network: developers specify RPC
processing as a chain of elements in a SQL-like DSL; a compiler lowers
the chain to an IR, optimizes it (reordering, parallelization, minimal
wire headers), and emits platform-native code; a runtime controller
places elements across software and hardware processors and rescales
them without disrupting the application.

Quick start::

    from repro import AdnCompiler, RpcSchema, FieldType
    from repro.dsl import load_stdlib
    from repro.dsl.ast_nodes import ChainDecl

    schema = RpcSchema.of("kv", payload=FieldType.BYTES,
                          username=FieldType.STR, obj_id=FieldType.INT)
    program = load_stdlib(["Logging", "Acl", "Fault"], schema=schema)
    chain = AdnCompiler().compile_chain(
        ChainDecl(src="A", dst="B", elements=("Logging", "Acl", "Fault")),
        program, schema)
    print(chain.element_order)            # optimized order
    print(chain.elements["Acl"].artifacts["p4"].source)  # generated P4

Package map:

* :mod:`repro.dsl` — the element/app language (lexer, parser, validator,
  standard element library).
* :mod:`repro.ir` — dataflow IR, analyses, interpreter, optimizer.
* :mod:`repro.compiler` — backends (python/eBPF/P4/WASM) and minimal
  header synthesis.
* :mod:`repro.state` — element state tables: snapshot, split, merge,
  live migration.
* :mod:`repro.net` — flat-id virtual L2, TCP model, HTTP/2+gRPC framing,
  the ADN compact wire format.
* :mod:`repro.sim` — discrete-event simulator, cluster model, calibrated
  cost model, workload generators.
* :mod:`repro.runtime` — placed processors and the ADN-over-mRPC path.
* :mod:`repro.baselines` — gRPC+Envoy mesh and hand-written mRPC modules.
* :mod:`repro.control` — mini cluster manager, controller, placement
  solver, autoscaler.
"""

from .compiler import AdnCompiler, CompiledApp, CompiledChain, CompiledElement
from .dsl import (
    DEFAULT_REGISTRY,
    FieldType,
    FunctionRegistry,
    Program,
    RpcSchema,
    load_stdlib,
    parse,
    validate_program,
)
from .errors import (
    AdnError,
    BackendError,
    CompileError,
    ControlPlaneError,
    DslSyntaxError,
    DslValidationError,
    HeaderLayoutError,
    PlacementError,
    RuntimeFault,
    SimulationError,
    StateError,
)
from .platforms import Platform

__version__ = "1.0.0"

__all__ = [
    "AdnCompiler",
    "AdnError",
    "BackendError",
    "CompileError",
    "CompiledApp",
    "CompiledChain",
    "CompiledElement",
    "ControlPlaneError",
    "DEFAULT_REGISTRY",
    "DslSyntaxError",
    "DslValidationError",
    "FieldType",
    "FunctionRegistry",
    "HeaderLayoutError",
    "PlacementError",
    "Platform",
    "Program",
    "RpcSchema",
    "RuntimeFault",
    "SimulationError",
    "StateError",
    "__version__",
    "load_stdlib",
    "parse",
    "validate_program",
]

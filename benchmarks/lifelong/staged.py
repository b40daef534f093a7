"""The compiler's public stages called one at a time, each in a span.

`staged_compile` does what `compile_and_link(level=2, lto=True)` does
and `staged_native` what `CodeGenerator.compile_module` does, but by
calling each layer's public function itself, so that every layer gets a
span without a line of `src/` changing.  Callers compare the result
byte for byte with the untraced build: a replay that drifts from the
driver is a failed run, not a silently wrong attribution.
"""

from __future__ import annotations

from collections import Counter

from common import Tracer, instruction_count

LEVEL = 2


def _run_pass(tracer: Tracer, layer: str, pass_obj, module, ident: str,
              counts: Counter) -> None:
    """One pass over one module, the way `PassManager.run` applies it."""
    with tracer.span(f"{layer}.{pass_obj.name}", ident):
        if hasattr(pass_obj, "run_on_module"):
            changed = int(bool(pass_obj.run_on_module(module)))
        else:
            changed = sum(bool(pass_obj.run_on_function(function))
                          for function in list(module.defined_functions()))
    counts[f"{layer}.{pass_obj.name}_changed"] += changed


def staged_compile(tracer: Tracer, sources, name: str, counts: Counter,
                   cache=None):
    """Source texts to the linked, link-time-optimized module."""
    from repro.bitcode import read_bytecode
    from repro.driver import (
        lto_pipeline, optimize_module, standard_pipeline,
    )
    from repro.frontend import CodeGenerator, parse, tokenize
    from repro.linker import link_modules

    modules = []
    for index, source in enumerate(sources):
        tu_name = f"{name}.tu{index}"
        module = None
        if cache is not None:
            key = cache.key(source, LEVEL)
            # `cache.load` in two steps, so that the cache and the
            # bytecode reader each get their own span.
            with tracer.span("driver.cache_lookup", name):
                data = cache.load_bytes(key)
            if data is not None:
                with tracer.span("bitcode.read", name):
                    module = read_bytecode(data)
        if module is not None:
            module.name = tu_name
        else:
            # `parse` lexes for itself; the separate `tokenize` is off
            # the build's path and only there to time and count lexing.
            with tracer.span("frontend.lex", name):
                counts["frontend.tokens"] += len(tokenize(source))
            with tracer.span("frontend.parse", name):
                program = parse(source)
            with tracer.span("frontend.codegen", name):
                module = CodeGenerator(tu_name).generate(program)
            counts["frontend.ir_insts"] += instruction_count(module)
            # optimize_module: a fresh pipeline for every module.
            for pass_obj in standard_pipeline(LEVEL).passes:
                _run_pass(tracer, "transforms", pass_obj, module, name,
                          counts)
            if cache is not None:
                with tracer.span("driver.cache_store", name):
                    cache.store(key, module)
        counts["transforms.ir_insts_after"] += instruction_count(module)
        modules.append(module)
    with tracer.span("linker.link", name):
        linked = link_modules(modules, name)
    # link_time_optimize: the IPO passes, a scalar cleanup, IPO again
    # with the same pass objects, a second cleanup.
    ipo = lto_pipeline().passes
    for round_ in range(2):
        for pass_obj in ipo:
            _run_pass(tracer, "ipo", pass_obj, linked, name, counts)
        with tracer.span("ipo.cleanup", name):
            optimize_module(linked, LEVEL)
    counts["ipo.ir_insts_after"] += instruction_count(linked)
    return linked


def staged_native(tracer: Tracer, module, target, ident: str,
                  counts: Counter) -> int:
    """Both back-end halves for one target; returns the code size."""
    from repro.backend import InstructionSelector, LinearScanAllocator

    selector = InstructionSelector(module)
    allocator = LinearScanAllocator(
        target.num_registers,
        fold_memory_operands=getattr(target, "folds_memory", False))
    code_size = 0
    for function in module.functions.values():
        if function.is_declaration:
            continue
        with tracer.span("backend.isel", ident):
            machine_fn = selector.select_function(function)
        counts[f"backend.machine_insts_{target.name}"] += \
            machine_fn.instruction_count()
        frame = machine_fn.frame_size
        with tracer.span("backend.regalloc", ident):
            allocator.run(machine_fn)
        # Each spilled interval takes one 8-byte frame slot.
        counts[f"backend.spills_{target.name}"] += \
            (machine_fn.frame_size - frame) // 8
        with tracer.span(f"backend.encode_{target.name}", ident):
            code_size += len(target.encode_function(machine_fn))
    return code_size


TRANSFORM_PASSES = ("simplifycfg", "sroa", "mem2reg", "instcombine",
                    "constprop", "dce", "sccp", "reassociate", "gvn", "licm",
                    "rangeopt", "adce")
IPO_PASSES = ("internalize", "devirtualize", "ipcp", "inline", "dae", "dge",
              "prune-eh", "heap2stack")
#: Every span `staged_compile` opens on the build's own path.
COMPILE_PATH = (
    ("frontend.parse", "frontend.codegen", "linker.link", "ipo.cleanup",
     "driver.cache_lookup", "driver.cache_store", "bitcode.read")
    + tuple(f"transforms.{name}" for name in TRANSFORM_PASSES)
    + tuple(f"ipo.{name}" for name in IPO_PASSES))


def attributed_seconds(tracer: Tracer) -> float:
    """Seconds the spans of `staged_compile` account for."""
    return sum(tracer.seconds(name) for name in COMPILE_PATH)


def compile_layers(tracer: Tracer, counts: Counter) -> dict:
    """The per-layer rows of every `staged_compile` call so far."""
    lex_s = tracer.seconds("frontend.lex")
    layers = {
        "frontend.lex_s": lex_s,
        "frontend.parse_s": tracer.seconds("frontend.parse") - lex_s,
        "frontend.codegen_s": tracer.seconds("frontend.codegen"),
        "frontend.tokens_per_s": (counts["frontend.tokens"] / lex_s
                                  if lex_s else 0.0),
        "frontend.ir_insts": counts["frontend.ir_insts"],
        "transforms.ir_insts_after": counts["transforms.ir_insts_after"],
        "linker.link_s": tracer.seconds("linker.link"),
        "ipo.cleanup_s": tracer.seconds("ipo.cleanup"),
        "ipo.ir_insts_after": counts["ipo.ir_insts_after"],
        "bitcode.read_s": tracer.seconds("bitcode.read"),
        "driver.cache_lookup_s": tracer.seconds("driver.cache_lookup"),
        "driver.cache_store_s": tracer.seconds("driver.cache_store"),
    }
    for name in TRANSFORM_PASSES:
        layers[f"transforms.{name}_s"] = tracer.seconds(f"transforms.{name}")
        layers[f"transforms.{name}_changed"] = counts[
            f"transforms.{name}_changed"]
    for name in IPO_PASSES:
        layers[f"ipo.{name}_s"] = tracer.seconds(f"ipo.{name}")
    layers["ipo.total_s"] = (sum(layers[f"ipo.{name}_s"]
                                 for name in IPO_PASSES)
                             + layers["ipo.cleanup_s"])
    return layers

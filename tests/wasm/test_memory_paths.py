"""Memory access paths agree across every tier.

TurboFan indexes per-page typed ``memoryview`` tables for accesses
aligned to their width and falls back to precompiled ``struct.Struct``
objects otherwise; Liftoff and the stencil tier use ``struct`` on the
raw page table; the interpreter goes through :class:`LinearMemory`.
Each case below runs one call script on a fresh memory per tier and
requires identical values and identical traps — at aligned and
unaligned addresses, across page and mapping boundaries, at the ragged
end of a mapping, on unmapped and read-only pages, and after the host
re-wires a mapping or the module grows its memory between calls.
"""

import math
import struct

import numpy as np
import pytest

from repro.errors import Trap
from repro.storage.rewiring import WASM_PAGE_SIZE as P
from repro.storage.rewiring import AddressSpace
from repro.wasm import ModuleBuilder
from repro.wasm.runtime import Engine, EngineConfig, LinearMemory
from repro.wasm.runtime.pycodegen import LOAD_FMT, STORE_FMT
from repro.wasm.runtime.turbofan import TurboFanCompiler

from tests.wasm.conftest import ALL_MODES

LOADS = sorted(LOAD_FMT)
STORES = sorted(STORE_FMT)

# one value per store width, with the sign bit set where it matters
STORE_VALUE = {
    "i32.store": -123456789, "i64.store": -0x123456789ABCDEF,
    "f32.store": -1.5, "f64.store": -2.718281828459045,
    "i32.store8": 0xAB, "i32.store16": -2, "i64.store8": -1,
    "i64.store16": 0x8001, "i64.store32": -0x7FFFFFFF,
}


def _name(op):
    return op.replace(".", "_")


def _module():
    """One exported function per load and store, plus ``grow``."""
    mb = ModuleBuilder("mem")
    mb.add_memory(1, 64)
    for op in LOADS:
        ty = op.split(".")[0]
        fb = mb.function(f"ld_{_name(op)}", params=[("i32", "a")],
                         results=[ty], export=True)
        fb.get(0).emit(op, 0, 0)
    for op in STORES:
        ty = op.split(".")[0]
        fb = mb.function(f"st_{_name(op)}",
                         params=[("i32", "a"), (ty, "v")], export=True)
        fb.get(0).get(1).emit(op, 0, 0)
    fb = mb.function("grow", params=[("i32", "d")], results=["i32"],
                     export=True)
    fb.get(0).emit("memory.grow", 0)
    return mb.finish()


MODULE = _module()


def ld(op, addr):
    return ("call", f"ld_{_name(op)}", (addr,))


def st(op, addr, value=None):
    value = STORE_VALUE[op] if value is None else value
    return ("call", f"st_{_name(op)}", (addr, value))


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Trap as trap:
        return ("trap", trap.kind)


def run_script(make_memory, steps):
    """Per tier: a fresh memory, one instance, the steps in order.

    A step is a call (see :func:`ld`/:func:`st`) or ``("host", f)``,
    where ``f(memory)`` acts between calls and its return value is
    recorded too.
    """
    results = {}
    for mode in ALL_MODES:
        memory = make_memory()
        instance = Engine(EngineConfig(mode=mode)).instantiate(
            MODULE, memory=memory)
        out = []
        for step in steps:
            if step[0] == "host":
                out.append(("host", step[1](memory)))
            else:
                out.append(_outcome(instance.invoke, step[1], *step[2]))
        results[mode] = out
    return results


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def assert_tiers_agree(make_memory, steps):
    results = run_script(make_memory, steps)
    reference = results["interpreter"]
    for mode, out in results.items():
        assert len(out) == len(reference)
        for i, (got, want) in enumerate(zip(out, reference)):
            assert _same(got, want), (mode, i, steps[i], got, want)
    return reference


def private(pages=2):
    return lambda: LinearMemory(min_pages=pages, max_pages=pages + 4)


def spaced(*buffers, writable=True):
    """A rewired space (page 0 unmapped) with one mapping per buffer."""
    def make():
        space = AddressSpace(max_pages=64)
        for i, buf in enumerate(buffers):
            space.map_buffer(f"m{i}", buf() if callable(buf) else buf,
                             writable=writable)
        return LinearMemory(space)
    return make


class TestWidths:
    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("misalign", [0, 1, 2, 3, 5, 7])
    def test_store_then_every_load(self, store, misalign):
        addr = 4096 + misalign
        steps = [st(store, addr)] + [ld(op, addr) for op in LOADS]
        reference = assert_tiers_agree(private(), steps)
        assert reference[0] == ("ok", None)
        assert all(kind == "ok" for kind, _ in reference)

    def test_values_round_trip_through_host_bytes(self):
        steps = [st("i64.store", 8, -2), ld("i64.load", 8),
                 ld("i32.load", 12), ld("i64.load32_u", 8),
                 ("host", lambda mem: mem.read_bytes(8, 8))]
        reference = assert_tiers_agree(private(), steps)
        assert reference[1] == ("ok", -2)
        assert reference[2] == ("ok", -1)
        assert reference[3] == ("ok", 0xFFFFFFFE)
        assert reference[4] == ("host", struct.pack("<q", -2))


class TestPageAndMappingBoundaries:
    @pytest.mark.parametrize("misalign", [1, 4, 7])
    def test_i64_straddling_pages_of_one_mapping(self, misalign):
        addr = P - 8 + misalign
        steps = [st("i64.store", addr, 0x0102030405060708),
                 ld("i64.load", addr), ld("f64.load", addr),
                 ld("i32.load", P - 2), ld("i32.load16_u", P - 1)]
        reference = assert_tiers_agree(private(), steps)
        assert reference[1] == ("ok", 0x0102030405060708)

    @pytest.mark.parametrize("misalign", [1, 4, 7])
    def test_i64_straddling_two_mappings(self, misalign):
        # two adjacent host buffers form one consecutive region: an access
        # across the seam reads and writes both
        make = spaced(lambda: bytearray(b"\x11" * P),
                      lambda: bytearray(b"\x22" * P))
        addr = 2 * P - 8 + misalign
        steps = [ld("i64.load", addr),
                 st("i64.store", addr, -0x1122334455667788),
                 ld("i64.load", addr), ld("i32.load", 2 * P - 2),
                 ("host", lambda mem: mem.read_bytes(2 * P - 8, 16))]
        reference = assert_tiers_agree(make, steps)
        before = bytes([0x11] * (8 - misalign) + [0x22] * misalign)
        assert reference[0] == ("ok", struct.unpack("<q", before)[0])
        assert reference[2] == ("ok", -0x1122334455667788)

    def test_straddle_into_read_only_mapping_traps_without_writing(self):
        frozen = np.full(P // 8, 7, dtype=np.int64)
        frozen.setflags(write=False)

        def make():
            space = AddressSpace(max_pages=64)
            space.map_buffer("rw", bytearray(P), writable=True)
            space.map_buffer("ro", frozen)
            return LinearMemory(space)

        steps = [st("i64.store", 2 * P - 4, -1),
                 ("host", lambda mem: mem.read_bytes(2 * P - 4, 8))]
        reference = assert_tiers_agree(make, steps)
        assert reference[0] == ("trap", "out of bounds memory access")
        assert reference[1] == ("host", bytes(4) + bytes([7, 0, 0, 0]))


class TestMappingEnds:
    def test_partial_last_page(self):
        # 12 bytes back the second page: aligned and unaligned accesses
        # that reach past them trap on every tier
        make = spaced(lambda: bytearray(range(256)) * (P // 256)
                      + bytearray(range(12)))
        base = P
        steps = [ld("i32.load", base + P + 8),
                 ld("i64.load", base + P + 4),
                 ld("i64.load", base + P + 8),
                 ld("i32.load", base + P + 10),
                 ld("i32.load16_u", base + P + 10),
                 ld("i32.load8_u", base + P + 11),
                 ld("i32.load8_u", base + P + 12),
                 ld("i32.load", base + P + 12),
                 st("i32.store", base + P + 8),
                 st("i64.store", base + P + 8),
                 st("i32.store16", base + P + 11),
                 ld("i32.load", base + P + 8)]
        reference = assert_tiers_agree(make, steps)
        outcomes = [kind for kind, _ in reference]
        assert outcomes == ["ok", "ok", "trap", "trap", "ok", "ok", "trap",
                            "trap", "ok", "trap", "trap", "ok"]

    @pytest.mark.parametrize("op", LOADS)
    def test_one_byte_past_the_end_of_a_buffer(self, op):
        make = spaced(lambda: bytearray(range(1, 11)))
        width = struct.calcsize(LOAD_FMT[op])
        steps = [ld(op, P + 10 - width), ld(op, P + 11 - width)]
        reference = assert_tiers_agree(make, steps)
        assert [kind for kind, _ in reference] == ["ok", "trap"]

    @pytest.mark.parametrize("addr", [0, 8, P - 8, 3 * P, 40 * P, 0xFFFFFFF8])
    def test_unmapped_pages_trap(self, addr):
        make = spaced(lambda: bytearray(2 * P))
        steps = [ld("i64.load", addr), ld("i32.load8_u", addr),
                 st("i64.store", addr), st("i32.store8", addr)]
        reference = assert_tiers_agree(make, steps)
        assert all(kind == "trap" for kind, _ in reference)

    @pytest.mark.parametrize("store", STORES)
    def test_store_into_read_only_numpy_mapping(self, store):
        column = np.arange(P // 4, dtype=np.int64)
        column.setflags(write=False)
        make = spaced(column, writable=False)
        steps = [st(store, P + 64), st(store, P + 65),
                 ld("i64.load", P + 64)]
        reference = assert_tiers_agree(make, steps)
        assert reference[0] == ("trap", "out of bounds memory access")
        assert reference[1] == ("trap", "out of bounds memory access")
        assert reference[2] == ("ok", 8)


class TestBetweenCalls:
    def test_remap_rewires_typed_tables(self):
        first = np.arange(2 * P // 8, dtype=np.int64)
        second = np.arange(P // 8, dtype=np.int64) * -3

        def make():
            space = AddressSpace(max_pages=64)
            space.map_buffer("col", first)
            return LinearMemory(space)

        def rewire(memory):
            return memory.space.remap("col", second)

        steps = [ld("i64.load", P + 8 * 5), ld("i64.load", 2 * P + 8),
                 ld("i32.load", 2 * P + 4), ("host", rewire),
                 ld("i64.load", P + 8 * 5), ld("i64.load", 2 * P + 8),
                 ld("i64.load", P + 8 * 5 + 1)]
        reference = assert_tiers_agree(make, steps)
        assert reference[0] == ("ok", 5)
        assert reference[1] == ("ok", P // 8 + 1)
        assert reference[4] == ("ok", -15)
        # the window's second page is unbacked after the smaller chunk
        assert reference[5] == ("trap", "out of bounds memory access")

    def test_memory_grow_extends_typed_tables(self):
        steps = [ld("i64.load", P), st("i64.store", P - 4, -1),
                 ("call", "grow", (1,)),
                 ld("i64.load", P), st("i64.store", P - 4, -1),
                 ld("i64.load", P - 4), ld("i32.load", P),
                 st("f64.store", 2 * P - 8, 0.5), ld("f64.load", 2 * P - 8),
                 ld("i32.load", 2 * P)]
        reference = assert_tiers_agree(private(pages=1), steps)
        assert [kind for kind, _ in reference] == [
            "trap", "trap", "ok", "ok", "ok", "ok", "ok", "ok", "ok", "trap",
        ]
        assert reference[2] == ("ok", 1)
        assert reference[5] == ("ok", -1)


class TestTypedTables:
    def test_built_lazily_and_sized_to_the_mapped_pages(self):
        space = AddressSpace(max_pages=64)
        space.map_buffer("a", bytearray(2 * P + 6))
        assert space._typed == {}
        table = space.typed_pages("i")
        assert list(space._typed) == ["i"]
        assert len(table) == 4  # page 0 (unmapped) + three mapped
        assert table[0] is None
        assert len(table[1]) == P // 4 and len(table[3]) == 1
        space.alloc("b", P)
        assert len(table) == 5 and len(table[4]) == P // 4
        space.unmap("a")
        assert table[1:4] == [None, None, None]

    def test_turbofan_binds_only_the_formats_it_uses(self):
        mb = ModuleBuilder("t")
        mb.add_memory(1, 4)
        fb = mb.function("f", params=[("i32", "a")], results=["i64"],
                         export=True)
        fb.get(0).emit("i64.load", 0, 0)
        module = mb.finish()
        memory = LinearMemory(min_pages=1, max_pages=4)
        Engine(EngineConfig(mode="turbofan")).instantiate(module,
                                                          memory=memory)
        assert list(memory.space._typed) == ["q"]


class TestInstrumentedSourceKeepsStructPath:
    def test_only_uninstrumented_code_uses_typed_views(self):
        func = MODULE.functions[LOADS.index("i64.load")]
        index = len(MODULE.imports) + LOADS.index("i64.load")
        fast = TurboFanCompiler(MODULE).compile(func, index)
        profiled = TurboFanCompiler(MODULE).compile(func, index,
                                                    instrumented=True)
        assert "_Vq[" in fast.source and fast.views == ("q",)
        assert "_unpack_from('<q'" in profiled.source
        assert "_V" not in profiled.source and profiled.views == ()

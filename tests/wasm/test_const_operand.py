"""TurboFan's constant-operand inlining keeps the interpreter's semantics.

``f32/f64.div`` by a nonzero finite constant becomes a plain ``/``,
``i32/i64.div_s`` by a positive constant inline truncating division,
and ``rotl``/``rotr``/``shr_u`` by a constant shift expressions.  Each
case compiles ``x <op> C`` and checks every tier against the reference
operator table the interpreter executes (``_FOLD_BIN``), bit for bit —
NaN, the infinities and the sign of zero included — and checks that the
divisors the rewrite must not touch keep the helper call.
"""

import math
import struct

import pytest

from repro.errors import Trap
from repro.wasm import ModuleBuilder
from repro.wasm.runtime import Engine, EngineConfig
from repro.wasm.runtime.interpreter import _BINOPS as _FOLD_BIN
from repro.wasm.runtime.turbofan import TurboFanCompiler

from tests.wasm.conftest import ALL_MODES

NAN = math.nan
INF = math.inf

I32_MIN, I32_MAX = -(1 << 31), (1 << 31) - 1
I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1


def _module(op, const):
    ty = op.split(".")[0]
    mb = ModuleBuilder("c")
    fb = mb.function("f", params=[(ty, "x")], results=[ty], export=True)
    fb.get(0).const(ty, const).emit(op)
    return mb.finish()


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Trap as trap:
        return ("trap", trap.kind)


def _bits(value, ty):
    if ty == "f32":
        return struct.pack("<f", value)
    if ty == "f64":
        return struct.pack("<d", value)
    return value


def _same(a, b, ty):
    if a[0] != b[0]:
        return False
    if a[0] == "trap" or ty.startswith("i"):
        return a == b
    x, y = a[1], b[1]
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return _bits(x, ty) == _bits(y, ty)


def check(op, const, dividends):
    """Every tier computes ``_FOLD_BIN[op](x, const)`` for each x."""
    ty = op.split(".")[0]
    module = _module(op, const)
    instances = {
        mode: Engine(EngineConfig(mode=mode)).instantiate(module)
        for mode in ALL_MODES
    }
    for x in dividends:
        want = _outcome(_FOLD_BIN[op], x, const)
        for mode, instance in instances.items():
            got = _outcome(instance.invoke, "f", x)
            assert _same(got, want, ty), (op, x, const, mode, got, want)


def turbofan_source(op, const):
    module = _module(op, const)
    return TurboFanCompiler(module).compile(module.functions[0], 0).source


F64_DIVIDENDS = [NAN, INF, -INF, 0.0, -0.0, 1.0, -7.25, 1e308, -1e-308,
                 5e-324, 123456.789]
F32_DIVIDENDS = [NAN, INF, -INF, 0.0, -0.0, 1.0, -7.25, 3.0e38, -1.5e-38,
                 1.401298464324817e-45, 12345.6787109375]


class TestFloatDivision:
    @pytest.mark.parametrize("divisor", [2.0, -3.0, 0.1, -1e-300, 1e300,
                                         7.0, -1.0])
    def test_f64_by_nonzero_constant(self, divisor):
        check("f64.div", divisor, F64_DIVIDENDS)
        assert "_fdiv" not in turbofan_source("f64.div", divisor)

    @pytest.mark.parametrize("divisor", [2.0, -3.0, 0.1, -1e-30, 1e30])
    def test_f32_by_nonzero_constant(self, divisor):
        divisor = struct.unpack("<f", struct.pack("<f", divisor))[0]
        check("f32.div", divisor, F32_DIVIDENDS)
        assert "_fdiv" not in turbofan_source("f32.div", divisor)

    @pytest.mark.parametrize("op", ["f32.div", "f64.div"])
    @pytest.mark.parametrize("divisor", [0.0, -0.0, NAN, INF, -INF])
    def test_divisors_left_to_the_helper(self, op, divisor):
        dividends = F32_DIVIDENDS if op == "f32.div" else F64_DIVIDENDS
        check(op, divisor, dividends)
        assert "_fdiv" in turbofan_source(op, divisor)


class TestSignedDivision:
    @pytest.mark.parametrize("divisor", [1, 2, 3, 7, 100, I32_MAX])
    def test_i32_by_positive_constant(self, divisor):
        check("i32.div_s", divisor,
              [0, 1, -1, 6, -6, 7, -7, 99, -99, 101, -101, I32_MIN, I32_MAX,
               I32_MIN + 1])
        assert "_idiv_s32" not in turbofan_source("i32.div_s", divisor)

    @pytest.mark.parametrize("divisor", [1, 2, 3, 7, 100, I64_MAX])
    def test_i64_by_positive_constant(self, divisor):
        check("i64.div_s", divisor,
              [0, 1, -1, 6, -6, 7, -7, 99, -99, 101, -101, I64_MIN, I64_MAX,
               I64_MIN + 1, -(10 ** 18) - 7])
        assert "_idiv_s64" not in turbofan_source("i64.div_s", divisor)

    @pytest.mark.parametrize("op,divisor", [
        ("i32.div_s", 0), ("i32.div_s", -1), ("i32.div_s", -3),
        ("i64.div_s", 0), ("i64.div_s", -1), ("i64.div_s", -3),
    ])
    def test_zero_and_negative_divisors_keep_the_trapping_helper(
            self, op, divisor):
        low = I32_MIN if op.startswith("i32") else I64_MIN
        check(op, divisor, [0, 5, -5, low])
        assert "_idiv_s" in turbofan_source(op, divisor)


class TestShifts:
    VALUES_64 = [0, 1, -1, I64_MIN, I64_MAX, 0x0123456789ABCDEF,
                 -0x0123456789ABCDEF, 0x7F]
    VALUES_32 = [0, 1, -1, I32_MIN, I32_MAX, 0x12345678, -0x12345678, 0x7F]

    @pytest.mark.parametrize("op", ["i64.rotl", "i64.rotr"])
    @pytest.mark.parametrize("count", [0, 1, 27, 63, 64, 65, -1])
    def test_i64_rotate_by_constant(self, op, count):
        check(op, count, self.VALUES_64)
        assert "_rot" not in turbofan_source(op, count)

    @pytest.mark.parametrize("op", ["i32.rotl", "i32.rotr"])
    @pytest.mark.parametrize("count", [0, 1, 13, 31, 32, 33, -1])
    def test_i32_rotate_by_constant(self, op, count):
        check(op, count, self.VALUES_32)
        assert "_rot" not in turbofan_source(op, count)

    @pytest.mark.parametrize("op,values", [("i64.shr_u", VALUES_64),
                                           ("i32.shr_u", VALUES_32)])
    @pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 63, 64, 65])
    def test_shr_u_by_constant(self, op, values, count):
        check(op, count, values)
        assert "_w" not in turbofan_source(op, count).split("def ", 1)[1]

    def test_xor_over_a_rotation_wraps_once(self):
        # the hash-combine shape: the rotation is wrapped to a signed
        # value, and xor of signed values needs no second wrap
        mb = ModuleBuilder("c")
        fb = mb.function("f", params=[("i64", "x")], results=["i64"],
                         export=True)
        fb.get(0).i64(5).emit("i64.rotl").get(0).emit("i64.xor")
        module = mb.finish()
        source = TurboFanCompiler(module).compile(
            module.functions[0], 0).source
        assert source.count("9223372036854775808") == 2  # one wrap


class TestInstrumentedCodeIsUntouched:
    @pytest.mark.parametrize("op,const", [("f64.div", 2.0),
                                          ("i64.div_s", 3),
                                          ("i64.rotl", 5)])
    def test_profiling_compiles_keep_the_helpers(self, op, const):
        module = _module(op, const)
        source = TurboFanCompiler(module).compile(
            module.functions[0], 0, instrumented=True).source
        helper = {"f64.div": "_fdiv", "i64.div_s": "_idiv_s64",
                  "i64.rotl": "_rotl64"}[op]
        assert helper in source

"""Exact WebAssembly value semantics for i32/i64/f32/f64.

These helpers are shared by the reference interpreter and by the code the
tier compilers generate (they are injected into the compiled namespace).
Integer values are represented as Python ints in signed range
([-2**31, 2**31) for i32, [-2**63, 2**63) for i64); floats as Python
floats, with f32 results rounded to single precision.
"""

from __future__ import annotations

import math
import struct

from repro.errors import Trap

__all__ = [
    "wrap32", "wrap64", "u32", "u64",
    "idiv_s", "irem_s", "idiv_u32", "irem_u32", "idiv_u64", "irem_u64",
    "shl32", "shr_s32", "shr_u32", "rotl32", "rotr32",
    "shl64", "shr_s64", "shr_u64", "rotl64", "rotr64",
    "clz32", "ctz32", "popcnt32", "clz64", "ctz64", "popcnt64",
    "f32round", "fdiv", "fmin", "fmax", "fnearest", "ftrunc_float",
    "trunc_to_i32_s", "trunc_to_i32_u", "trunc_to_i64_s", "trunc_to_i64_u",
    "reinterpret_f2i32", "reinterpret_f2i64",
    "reinterpret_i2f32", "reinterpret_i2f64",
    "trap",
]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_SIGN32 = 0x80000000
_SIGN64 = 0x8000000000000000


def trap(kind: str, message: str = "") -> None:
    raise Trap(kind, message)


def wrap32(x: int) -> int:
    """Wrap to signed i32."""
    return ((x + _SIGN32) & _MASK32) - _SIGN32


def wrap64(x: int) -> int:
    """Wrap to signed i64."""
    return ((x + _SIGN64) & _MASK64) - _SIGN64


def u32(x: int) -> int:
    """The unsigned interpretation of an i32."""
    return x & _MASK32


def u64(x: int) -> int:
    """The unsigned interpretation of an i64."""
    return x & _MASK64


# -- integer division (trunc semantics + traps) ------------------------------

def idiv_s(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    limit = 1 << (bits - 1)
    if q >= limit:  # only INT_MIN / -1
        raise Trap("integer overflow")
    return q


def irem_s(a: int, b: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero")
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def idiv_u32(a: int, b: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero")
    return wrap32((a & _MASK32) // (b & _MASK32))


def irem_u32(a: int, b: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero")
    return wrap32((a & _MASK32) % (b & _MASK32))


def idiv_u64(a: int, b: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero")
    return wrap64((a & _MASK64) // (b & _MASK64))


def irem_u64(a: int, b: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero")
    return wrap64((a & _MASK64) % (b & _MASK64))


# -- shifts and rotates ----------------------------------------------------------

def shl32(a: int, b: int) -> int:
    return wrap32(a << (b & 31))


def shr_s32(a: int, b: int) -> int:
    return a >> (b & 31)


def shr_u32(a: int, b: int) -> int:
    return wrap32((a & _MASK32) >> (b & 31))


def rotl32(a: int, b: int) -> int:
    b &= 31
    ua = a & _MASK32
    return wrap32(((ua << b) | (ua >> (32 - b))) & _MASK32) if b else a


def rotr32(a: int, b: int) -> int:
    b &= 31
    ua = a & _MASK32
    return wrap32(((ua >> b) | (ua << (32 - b))) & _MASK32) if b else a


def shl64(a: int, b: int) -> int:
    return wrap64(a << (b & 63))


def shr_s64(a: int, b: int) -> int:
    return a >> (b & 63)


def shr_u64(a: int, b: int) -> int:
    return wrap64((a & _MASK64) >> (b & 63))


def rotl64(a: int, b: int) -> int:
    b &= 63
    ua = a & _MASK64
    return wrap64(((ua << b) | (ua >> (64 - b))) & _MASK64) if b else a


def rotr64(a: int, b: int) -> int:
    b &= 63
    ua = a & _MASK64
    return wrap64(((ua >> b) | (ua << (64 - b))) & _MASK64) if b else a


# -- bit counting ------------------------------------------------------------------

def clz32(a: int) -> int:
    return 32 - (a & _MASK32).bit_length()


def ctz32(a: int) -> int:
    ua = a & _MASK32
    return 32 if ua == 0 else (ua & -ua).bit_length() - 1


def popcnt32(a: int) -> int:
    return (a & _MASK32).bit_count()


def clz64(a: int) -> int:
    return 64 - (a & _MASK64).bit_length()


def ctz64(a: int) -> int:
    ua = a & _MASK64
    return 64 if ua == 0 else (ua & -ua).bit_length() - 1


def popcnt64(a: int) -> int:
    return (a & _MASK64).bit_count()


# -- floating point ------------------------------------------------------------------

def f32round(x: float) -> float:
    """Round a Python float to f32 precision (beyond its range: ±inf)."""
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        return math.copysign(math.inf, x)


def fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.inf * sign
    return a / b


def fmin(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == 0.0 and b == 0.0:  # -0 < +0 in wasm min
        return a if math.copysign(1.0, a) < 0 else b
    return min(a, b)


def fmax(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == 0.0 and b == 0.0:
        return a if math.copysign(1.0, a) > 0 else b
    return max(a, b)


def fnearest(x: float) -> float:
    """Round-half-to-even, keeping the sign of zero."""
    if math.isnan(x) or math.isinf(x):
        return x
    r = float(round(x))  # Python's round is half-to-even
    if r == 0.0:
        return math.copysign(0.0, x)
    return r


def ftrunc_float(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        return x
    return float(math.trunc(x))


# -- float -> int truncation (trapping) ----------------------------------------------

def _trunc_checked(x: float, lo: int, hi: int) -> int:
    if math.isnan(x):
        raise Trap("invalid conversion to integer")
    if not (lo - 1 < x < hi + 1):
        raise Trap("integer overflow")
    v = math.trunc(x)
    if not (lo <= v <= hi):
        raise Trap("integer overflow")
    return int(v)


def trunc_to_i32_s(x: float) -> int:
    return _trunc_checked(x, -(1 << 31), (1 << 31) - 1)


def trunc_to_i32_u(x: float) -> int:
    return wrap32(_trunc_checked(x, 0, (1 << 32) - 1))


def trunc_to_i64_s(x: float) -> int:
    return _trunc_checked(x, -(1 << 63), (1 << 63) - 1)


def trunc_to_i64_u(x: float) -> int:
    return wrap64(_trunc_checked(x, 0, (1 << 64) - 1))


# -- reinterpret casts ---------------------------------------------------------------

def reinterpret_f2i32(x: float) -> int:
    return wrap32(struct.unpack("<i", struct.pack("<f", x))[0])


def reinterpret_f2i64(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def reinterpret_i2f32(x: int) -> float:
    return struct.unpack("<f", struct.pack("<i", wrap32(x)))[0]


def reinterpret_i2f64(x: int) -> float:
    return struct.unpack("<d", struct.pack("<q", x))[0]

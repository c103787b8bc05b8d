"""The stencil library: pre-compiled, parameterized code fragments.

Every factory below is a *stencil* in the Copy-and-Patch sense: a piece
of executable code compiled **once, at import time** (to CPython
bytecode), with holes for the values that vary per use — immediate
constants, local indices, memory offsets, branch targets.  Assembling a
function (:mod:`repro.wasm.stencil.assemble`) never runs a compiler; it
only *instantiates* stencils by calling these factories with the holes
filled in, which is the Python analogue of memcpy-ing a machine-code
fragment and patching its relocations.

A stencil instance is a closure ``op(st, L, ctx) -> next_ip`` executing
one Wasm instruction over the operand stack ``st`` and locals ``L``:

* ``ctx`` is the per-instance binding tuple (see the ``CTX_*`` indices
  below), created at :meth:`StencilFunction.bind` time — so assembled
  code is **instance-independent** and shareable across queries,
* the returned integer is the next instruction pointer; straight-line
  stencils return their statically patched successor, branch stencils
  return their patched target.

Arithmetic semantics are correct by construction: the factories reuse
the reference interpreter's operator lambdas
(:data:`repro.wasm.runtime.interpreter._BINOPS`/``_UNOPS``), so the
stencil tier cannot diverge from the oracle on any numeric edge case
(NaN, -0.0, wraparound, shift masking, division traps).  Memory access
mirrors the Liftoff fast path byte for byte: mask to 32 bits, index the
page table, ``struct`` (un)pack within the page.
"""

from __future__ import annotations

from struct import error as struct_error
from struct import pack_into, unpack_from

from repro.errors import Trap
from repro.wasm.runtime import values as V
from repro.wasm.runtime.interpreter import _BINOPS, _UNOPS
from repro.wasm.runtime.pycodegen import LOAD_FMT, STORE_FMT

__all__ = [
    "BINOP_FNS", "UNOP_FNS",
    "CTX_FUNCS", "CTX_GLOBALS", "CTX_PAGES", "CTX_MEMSIZE", "CTX_MEMGROW",
    "CTX_TABLE", "CTX_MEMORY",
]

# Indices into the per-instance ctx tuple bound at bind() time.
CTX_FUNCS = 0     # instance.funcs — the live function table (tier-up visible)
CTX_GLOBALS = 1   # instance.globals
CTX_PAGES = 2     # instance.memory.pages — the rewired page table
CTX_MEMSIZE = 3   # () -> pages
CTX_MEMGROW = 4   # (delta) -> old pages | -1
CTX_TABLE = 5     # instance.table_lookup (call_indirect resolution)
CTX_MEMORY = 6    # instance.memory — slow path of accesses past a buffer

#: Exact-semantics operator implementations, shared with the oracle.
BINOP_FNS = _BINOPS
UNOP_FNS = _UNOPS


# -- value stencils ----------------------------------------------------------

def local_get(i, nip):
    def op(st, L, ctx):
        st.append(L[i])
        return nip
    return op


def local_set(i, nip):
    def op(st, L, ctx):
        L[i] = st.pop()
        return nip
    return op


def local_tee(i, nip):
    def op(st, L, ctx):
        L[i] = st[-1]
        return nip
    return op


def global_get(i, nip):
    def op(st, L, ctx):
        st.append(ctx[1][i])
        return nip
    return op


def global_set(i, nip):
    def op(st, L, ctx):
        ctx[1][i] = st.pop()
        return nip
    return op


def const(v, nip):
    def op(st, L, ctx):
        st.append(v)
        return nip
    return op


def binop(fn, nip):
    def op(st, L, ctx):
        b = st.pop()
        a = st.pop()
        st.append(fn(a, b))
        return nip
    return op


def unop(fn, nip):
    def op(st, L, ctx):
        st.append(fn(st.pop()))
        return nip
    return op


def drop(nip):
    def op(st, L, ctx):
        st.pop()
        return nip
    return op


def select(nip):
    def op(st, L, ctx):
        c = st.pop()
        b = st.pop()
        a = st.pop()
        st.append(a if c else b)
        return nip
    return op


def unreachable(nip):
    def op(st, L, ctx):
        raise Trap("unreachable")
    return op


# -- memory stencils ---------------------------------------------------------
# Byte-for-byte the Liftoff fast path: the surrounding dispatch loop maps
# (TypeError, IndexError, struct.error) to the out-of-bounds trap, and an
# access that runs past its page's buffer reads/writes across mappings.

def load(op_name, offset, nip):
    fmt = LOAD_FMT[op_name]
    if offset:
        def op(st, L, ctx):
            a = (st.pop() + offset) & 4294967295
            e = ctx[2][a >> 16]
            try:
                st.append(unpack_from(fmt, e[0], e[1] + (a & 65535))[0])
            except struct_error:
                st.append(ctx[6].load_across(fmt, a))
            return nip
    else:
        def op(st, L, ctx):
            a = st.pop() & 4294967295
            e = ctx[2][a >> 16]
            try:
                st.append(unpack_from(fmt, e[0], e[1] + (a & 65535))[0])
            except struct_error:
                st.append(ctx[6].load_across(fmt, a))
            return nip
    return op


def store(op_name, offset, nip):
    fmt, mask = STORE_FMT[op_name]
    if mask is not None:
        def op(st, L, ctx):
            v = st.pop() & mask
            a = (st.pop() + offset) & 4294967295
            e = ctx[2][a >> 16]
            try:
                pack_into(fmt, e[0], e[1] + (a & 65535), v)
            except struct_error:
                ctx[6].store_across(fmt, a, v)
            return nip
    else:
        def op(st, L, ctx):
            v = st.pop()
            a = (st.pop() + offset) & 4294967295
            e = ctx[2][a >> 16]
            try:
                pack_into(fmt, e[0], e[1] + (a & 65535), v)
            except struct_error:
                ctx[6].store_across(fmt, a, v)
            return nip
    return op


def memory_size(nip):
    def op(st, L, ctx):
        st.append(ctx[3]())
        return nip
    return op


def memory_grow(nip):
    def op(st, L, ctx):
        st.append(ctx[4](st.pop()))
        return nip
    return op


# -- call stencils -----------------------------------------------------------
# The callee is fetched from ctx[CTX_FUNCS] on every call, so a function
# tiered up mid-query is picked up by stencil call sites immediately —
# the same live-table indirection the compiled tiers use.

def call(func_index, nparams, nresults, nip):
    if nparams == 0:
        if nresults:
            def op(st, L, ctx):
                st.append(ctx[0][func_index]())
                return nip
        else:
            def op(st, L, ctx):
                ctx[0][func_index]()
                return nip
    elif nresults == 1:
        def op(st, L, ctx):
            args = st[-nparams:]
            del st[-nparams:]
            st.append(ctx[0][func_index](*args))
            return nip
    else:
        def op(st, L, ctx):
            args = st[-nparams:]
            del st[-nparams:]
            r = ctx[0][func_index](*args)
            if nresults:
                st.extend(r)
            return nip
    return op


def call_indirect(type_index, nparams, nresults, nip):
    def op(st, L, ctx):
        fi = ctx[5](st.pop(), type_index)
        if nparams:
            args = st[-nparams:]
            del st[-nparams:]
            r = ctx[0][fi](*args)
        else:
            r = ctx[0][fi]()
        if nresults == 1:
            st.append(r)
        elif nresults:
            st.extend(r)
        return nip
    return op


# -- control stencils --------------------------------------------------------
# Branch stencils are where "offset patching" is literal: the assembler
# reserves a slot, and once the target's instruction pointer is known the
# slot is overwritten with a stencil instantiated for that target.  The
# ``h``/``n`` holes encode the static stack discipline (trim height and
# values carried), known exactly from validated structured control flow.

def jump(t):
    def op(st, L, ctx):
        return t
    return op


def br_trim0(h, t):
    def op(st, L, ctx):
        del st[h:]
        return t
    return op


def br_trimn(h, n, t):
    def op(st, L, ctx):
        st[h:] = st[len(st) - n:]
        return t
    return op


def br_if(t, nip):
    def op(st, L, ctx):
        return t if st.pop() else nip
    return op


def br_if_trim0(h, t, nip):
    def op(st, L, ctx):
        if st.pop():
            del st[h:]
            return t
        return nip
    return op


def br_if_trimn(h, n, t, nip):
    def op(st, L, ctx):
        if st.pop():
            st[h:] = st[len(st) - n:]
            return t
        return nip
    return op


def if_false(else_ip, nip):
    def op(st, L, ctx):
        return nip if st.pop() else else_ip
    return op


def br_table(entries):
    """``entries[i]`` is ``(target, trim_height | -1, carried)``; the
    last entry is the default."""
    last = len(entries) - 1

    def op(st, L, ctx):
        i = st.pop()
        t, h, n = entries[i] if 0 <= i < last else entries[last]
        if h >= 0:
            if n:
                st[h:] = st[len(st) - n:]
            else:
                del st[h:]
        return t
    return op


def f32const(v, nip):
    return const(V.f32round(float(v)), nip)

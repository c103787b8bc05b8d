"""Tier-0 assembly: flatten a function body into a line of stencils.

Assembly is **not** compilation: there is no source generation, no
parsing, no ``compile()``.  One pass walks the validated structured body
and, per instruction, instantiates one pre-compiled stencil from
:mod:`repro.wasm.stencil.library` — concatenation — filling in the
holes (constants, local indices, memory offsets, successor/branch
instruction pointers) — patching.  The output is a
:class:`StencilFunction`: a flat ``list`` of ``op(st, L, ctx) -> ip``
closures plus the tiny prologue facts needed to run it.

Two static facts make branch patching exact:

* validated Wasm has deterministic stack heights at every reachable
  instruction, so each branch stencil can be patched with the precise
  trim height and carried-value count (no runtime height bookkeeping);
* structured control flow cannot jump *into* code that follows an
  unconditional terminator, so the assembler simply skips such dead
  code instead of tracking polymorphic stack states.

Forward branch targets (to the end of an enclosing ``block``/``if``)
are resolved with a patch list per frame: the assembler reserves the
slot, and when the frame closes it overwrites the slot with a stencil
instantiated for the now-known target — relocation, in list form.
``loop`` and function-level targets are known immediately (backward,
and the epilogue sentinel).

Blocks and loops themselves assemble to **zero** stencils: a label is
an instruction pointer, not code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from struct import error as _StructError

from repro.errors import StencilError, Trap
from repro.wasm.module import Function, Module
from repro.wasm.runtime.pycodegen import LOAD_FMT, STORE_FMT
from repro.wasm.stencil import library as L

__all__ = ["StencilFunction", "assemble_function", "assemble_module"]

#: The epilogue "instruction pointer": any ip past the end stops the
#: dispatch loop, so ``return`` patches to this sentinel without needing
#: the (unknown at emit time) final code length.
_END = 1 << 30

_DEFAULTS = {"i32": 0, "i64": 0, "f32": 0.0, "f64": 0.0}


@dataclass
class StencilFunction:
    """One assembled function: instance-independent, cache-shareable.

    ``code`` is the stencil line; ``bind`` attaches it to one instance
    by building the ctx tuple and wrapping the dispatch loop with the
    same trap mapping the Liftoff tier uses, so all four execution
    paths agree on failure classification byte for byte.
    """

    name: str
    tier: str = "stencil"
    code: list = field(default_factory=list, repr=False)
    n_params: int = 0
    local_defaults: tuple = ()
    has_result: bool = False
    #: Source instructions assembled (bench/metrics accounting).
    n_instrs: int = 0

    def bind(self, instance, profile=None):
        """Attach to one instance; returns the callable for ``funcs``.

        With a ``profile`` the dispatch loop counts the stencils it
        executes into ``profile.instructions`` — each stencil covers
        one source instruction, so instrumented runs account tier-0
        work on the same scale as the interpreter and the compiled
        tiers.
        """
        memory = instance.memory
        ctx = (
            instance.funcs,
            instance.globals,
            memory.pages if memory is not None else None,
            (lambda: memory.size_pages) if memory is not None else None,
            memory.grow if memory is not None else None,
            instance.table_lookup,
            memory,
        )
        code = self.code
        n = len(code)
        n_params = self.n_params
        defaults = self.local_defaults
        has_result = self.has_result
        name = self.name

        if profile is None:
            def fn(*args):
                if len(args) != n_params:
                    raise Trap("call argument count mismatch", name)
                locals_ = list(args)
                if defaults:
                    locals_.extend(defaults)
                st = []
                ip = 0
                try:
                    while ip < n:
                        ip = code[ip](st, locals_, ctx)
                except (TypeError, IndexError, _StructError) as e:
                    raise Trap("out of bounds memory access", repr(e))
                except RecursionError:
                    raise Trap("call stack exhausted")
                return st[-1] if has_result else None
        else:
            def fn(*args):
                if len(args) != n_params:
                    raise Trap("call argument count mismatch", name)
                locals_ = list(args)
                if defaults:
                    locals_.extend(defaults)
                st = []
                ip = 0
                dispatched = 0
                try:
                    while ip < n:
                        dispatched += 1
                        ip = code[ip](st, locals_, ctx)
                except (TypeError, IndexError, _StructError) as e:
                    raise Trap("out of bounds memory access", repr(e))
                except RecursionError:
                    raise Trap("call stack exhausted")
                finally:
                    profile.instructions += dispatched
                return st[-1] if has_result else None

        fn.tier = self.tier
        fn.compiled = self
        return fn


class _Frame:
    """One open control frame during flattening."""

    __slots__ = ("kind", "height", "nresults", "start_ip", "pending")

    def __init__(self, kind, height, nresults, start_ip=-1):
        self.kind = kind            # "func" | "block" | "loop"
        self.height = height        # operand-stack height at entry
        self.nresults = nresults    # values a branch to this label carries
        self.start_ip = start_ip    # loop: the backward target
        self.pending = []           # callbacks(target_ip) run at close


class _Assembler:
    """Assembles one function; cheap enough to be throwaway."""

    def __init__(self, module: Module, func: Function, func_index: int):
        self.module = module
        self.func = func
        self.func_index = func_index
        self.code: list = []
        self.n_instrs = 0

    def assemble(self) -> StencilFunction:
        func = self.func
        func_type = self.module.types[func.type_index]
        frame = _Frame("func", 0, len(func_type.results))
        self._flatten(func.body, [frame], 0)
        # function-frame branches were patched to _END immediately;
        # nothing is pending on it, but keep the invariant explicit
        for callback in frame.pending:  # pragma: no cover - always empty
            callback(_END)
        return StencilFunction(
            name=func.name or f"f{self.func_index}",
            code=self.code,
            n_params=len(func_type.params),
            local_defaults=tuple(_DEFAULTS[t] for t in func.locals_),
            has_result=bool(func_type.results),
            n_instrs=self.n_instrs,
        )

    # -- flattening --------------------------------------------------------

    def _flatten(self, body: list, frames: list, height: int) -> int:
        """Emit stencils for ``body``; returns the exit stack height.

        Stops at the first unconditional terminator (the rest of the
        body is statically dead — structured control flow cannot reach
        it).
        """
        code = self.code
        module = self.module
        for instr in body:
            op = instr[0]
            self.n_instrs += 1
            nip = len(code) + 1

            if op == "local.get":
                code.append(L.local_get(instr[1], nip))
                height += 1
            elif op == "local.set":
                code.append(L.local_set(instr[1], nip))
                height -= 1
            elif op == "local.tee":
                code.append(L.local_tee(instr[1], nip))
            elif op == "i32.const" or op == "i64.const":
                code.append(L.const(int(instr[1]), nip))
                height += 1
            elif op == "f64.const":
                code.append(L.const(float(instr[1]), nip))
                height += 1
            elif op == "f32.const":
                code.append(L.f32const(instr[1], nip))
                height += 1
            elif op in L.BINOP_FNS:
                code.append(L.binop(L.BINOP_FNS[op], nip))
                height -= 1
            elif op in L.UNOP_FNS:
                code.append(L.unop(L.UNOP_FNS[op], nip))
            elif op in LOAD_FMT:
                code.append(L.load(op, instr[2], nip))
            elif op in STORE_FMT:
                code.append(L.store(op, instr[2], nip))
                height -= 2
            elif op == "block":
                nres = len(instr[1])
                frame = _Frame("block", height, nres)
                frames.append(frame)
                self._flatten(instr[2], frames, height)
                frames.pop()
                self._close(frame, len(code))
                height += nres
            elif op == "loop":
                frame = _Frame("loop", height, 0, start_ip=len(code))
                frames.append(frame)
                self._flatten(instr[2], frames, height)
                frames.pop()
                self._close(frame, len(code))
                height += len(instr[1])
            elif op == "if":
                height = self._emit_if(instr, frames, height)
            elif op == "br":
                self._emit_branch(frames[-1 - instr[1]], height, cond=False)
                return height
            elif op == "br_if":
                height -= 1
                self._emit_branch(frames[-1 - instr[1]], height, cond=True)
            elif op == "br_table":
                height -= 1
                self._emit_br_table(instr[1], instr[2], frames, height)
                return height
            elif op == "return":
                code.append(L.jump(_END))
                return height
            elif op == "call":
                ft = module.func_type_of(instr[1])
                code.append(L.call(instr[1], len(ft.params),
                                   len(ft.results), nip))
                height += len(ft.results) - len(ft.params)
            elif op == "call_indirect":
                ft = module.types[instr[1]]
                code.append(L.call_indirect(instr[1], len(ft.params),
                                            len(ft.results), nip))
                height += len(ft.results) - len(ft.params) - 1
            elif op == "drop":
                code.append(L.drop(nip))
                height -= 1
            elif op == "select":
                code.append(L.select(nip))
                height -= 2
            elif op == "unreachable":
                code.append(L.unreachable(nip))
                return height
            elif op == "nop":
                self.n_instrs -= 1  # assembles to nothing
            elif op == "memory.size":
                code.append(L.memory_size(nip))
                height += 1
            elif op == "memory.grow":
                code.append(L.memory_grow(nip))
            elif op == "global.get":
                code.append(L.global_get(instr[1], nip))
                height += 1
            elif op == "global.set":
                code.append(L.global_set(instr[1], nip))
                height -= 1
            else:
                raise StencilError(
                    f"stencil: no stencil for op {op!r} "
                    f"in {self.func.name or self.func_index}"
                )
        return height

    def _emit_if(self, instr, frames: list, height: int) -> int:
        code = self.code
        nres = len(instr[1])
        height -= 1  # the condition
        cond_slot = len(code)
        code.append(None)
        frame = _Frame("block", height, nres)
        frames.append(frame)
        self._flatten(instr[2], frames, height)
        jump_slot = len(code)
        code.append(None)  # jump over the else arm
        else_start = len(code)
        self._flatten(instr[3], frames, height)
        frames.pop()
        end = len(code)
        self._close(frame, end)
        code[cond_slot] = L.if_false(else_start, cond_slot + 1)
        code[jump_slot] = L.jump(end)
        return height + nres

    # -- branches ----------------------------------------------------------

    def _branch_shape(self, frame: _Frame, height: int):
        """(trim_height, carried, needs_trim) for a branch at ``height``.

        The function frame never trims: the epilogue reads the top of
        the stack, so a ``br`` to it is a bare jump to the sentinel.
        """
        if frame.kind == "func":
            return 0, 0, False
        n = 0 if frame.kind == "loop" else frame.nresults
        return frame.height, n, height != frame.height + n

    def _patch(self, frame: _Frame, slot: int, builder) -> None:
        """Patch ``slot`` now (backward/known target) or at frame close."""
        code = self.code
        if frame.kind == "loop":
            code[slot] = builder(frame.start_ip)
        elif frame.kind == "func":
            code[slot] = builder(_END)
        else:
            frame.pending.append(
                lambda target: code.__setitem__(slot, builder(target))
            )

    def _close(self, frame: _Frame, end_ip: int) -> None:
        for callback in frame.pending:
            callback(end_ip)
        frame.pending.clear()

    def _emit_branch(self, frame: _Frame, height: int, cond: bool) -> None:
        slot = len(self.code)
        self.code.append(None)
        nip = slot + 1
        h, n, trim = self._branch_shape(frame, height)
        if cond:
            if not trim:
                builder = (lambda t: L.br_if(t, nip))
            elif n == 0:
                builder = (lambda t: L.br_if_trim0(h, t, nip))
            else:
                builder = (lambda t: L.br_if_trimn(h, n, t, nip))
        else:
            if not trim:
                builder = L.jump
            elif n == 0:
                builder = (lambda t: L.br_trim0(h, t))
            else:
                builder = (lambda t: L.br_trimn(h, n, t))
        self._patch(frame, slot, builder)

    def _emit_br_table(self, targets, default, frames: list,
                       height: int) -> None:
        code = self.code
        slot = len(code)
        code.append(None)
        depths = list(targets) + [default]
        entries: list = [None] * len(depths)
        remaining = [len(depths)]

        def settle(j, action):
            entries[j] = action
            remaining[0] -= 1
            if remaining[0] == 0:
                code[slot] = L.br_table(tuple(entries))

        for j, depth in enumerate(depths):
            frame = frames[-1 - depth]
            h, n, trim = self._branch_shape(frame, height)
            trim_h = h if trim else -1

            def make(target, j=j, trim_h=trim_h, n=n):
                settle(j, (target, trim_h, n))

            if frame.kind == "loop":
                make(frame.start_ip)
            elif frame.kind == "func":
                make(_END)
            else:
                frame.pending.append(make)


def assemble_function(module: Module, func: Function,
                      func_index: int) -> StencilFunction:
    """Assemble one function into runnable stencil code."""
    return _Assembler(module, func, func_index).assemble()


def assemble_module(module: Module) -> tuple[StencilFunction, ...]:
    """Assemble every function of a module (the cacheable artifact)."""
    n_imports = len(module.imports)
    return tuple(
        assemble_function(module, func, n_imports + i)
        for i, func in enumerate(module.functions)
    )

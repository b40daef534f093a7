"""LC AST → IR code generation.

Follows the front-end strategy of paper section 3.2:

* locals live in ``alloca`` slots accessed by load/store — the
  front-end performs **no SSA construction** (stack promotion and
  scalar expansion build SSA later);
* maximal type information is synthesized: structs become named struct
  types, field/array access becomes ``getelementptr``, allocation is
  the *typed* ``malloc``;
* ``try``/``catch``/``throw`` lower exactly as section 2.4 prescribes:
  calls inside a ``try`` become ``invoke`` with the catch block as the
  unwind destination, a ``throw`` inside a ``try`` is a direct branch
  to the handler, and a ``throw`` outside any ``try`` is ``unwind``.
"""

from __future__ import annotations

from typing import Optional

from ..core import types
from ..core.basicblock import BasicBlock
from ..core.builder import IRBuilder
from ..core.instructions import Opcode
from ..core.module import Function, GlobalVariable, Linkage, Module
from ..core.values import (
    Constant, ConstantAggregateZero, ConstantBool, ConstantExpr, ConstantFP,
    ConstantInt, ConstantPointerNull, ConstantString, Value, null_value,
)
from ..core import constfold
from . import astnodes as ast

_PRIMITIVES = {
    "void": types.VOID, "bool": types.BOOL,
    "char": types.SBYTE, "uchar": types.UBYTE,
    "short": types.SHORT, "ushort": types.USHORT,
    "int": types.INT, "uint": types.UINT,
    "long": types.LONG, "ulong": types.ULONG,
    "float": types.FLOAT, "double": types.DOUBLE,
}

_ARITH_OPS = {
    "+": Opcode.ADD, "-": Opcode.SUB, "*": Opcode.MUL,
    "/": Opcode.DIV, "%": Opcode.REM,
    "&": Opcode.AND, "|": Opcode.OR, "^": Opcode.XOR,
}
_COMPARE_OPS = {
    "==": Opcode.SETEQ, "!=": Opcode.SETNE, "<": Opcode.SETLT,
    ">": Opcode.SETGT, "<=": Opcode.SETLE, ">=": Opcode.SETGE,
}


class CodeGenError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Scope:
    """A lexical scope mapping names to alloca slots (or globals)."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.entries: dict[str, Value] = {}

    def lookup(self, name: str) -> Optional[Value]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.entries:
                return scope.entries[name]
            scope = scope.parent
        return None

    def define(self, name: str, value: Value) -> None:
        self.entries[name] = value


class _ConstantFolder(IRBuilder):
    """The builder global initializers are generated with: each
    instruction is folded by constfold instead of being inserted."""

    def _insert(self, inst):
        folded = constfold.fold_instruction(inst)
        inst.drop_all_references()
        if folded is None:
            raise CodeGenError("unsupported constant initializer",
                               self.current_line)
        return folded


class CodeGenerator:
    """Translates one LC translation unit into a fresh module."""

    def __init__(self, module_name: str = "lc_module"):
        self.module = Module(module_name)
        self.builder = IRBuilder()
        self.structs: dict[str, types.StructType] = {}
        self.struct_fields: dict[str, list[tuple[str, ast.TypeExpr]]] = {}
        self.typedefs: dict[str, ast.TypeExpr] = {}
        self.scope = _Scope()
        self.function: Optional[Function] = None
        self.string_cache: dict[bytes, GlobalVariable] = {}
        #: (break target, continue target) stack for loops/switches.
        self.loop_stack: list[tuple[BasicBlock, Optional[BasicBlock]]] = []
        #: Catch-handler block stack for try regions.
        self.try_stack: list[BasicBlock] = []
        self._string_counter = 0

    # ======================================================================
    # Types
    # ======================================================================

    def resolve_type(self, expr: ast.TypeExpr) -> types.Type:
        if isinstance(expr, ast.NamedType):
            if expr.is_struct:
                return self._struct_type(expr.name)
            if expr.name in _PRIMITIVES:
                return _PRIMITIVES[expr.name]
            if expr.name in self.typedefs:
                return self.resolve_type(self.typedefs[expr.name])
            if expr.name in self.structs:
                return self.structs[expr.name]
            raise CodeGenError(f"unknown type {expr.name!r}", expr.line)
        if isinstance(expr, ast.PointerType):
            return types.pointer(self.resolve_type(expr.base))
        if isinstance(expr, ast.ArrayTypeExpr):
            return types.array(self.resolve_type(expr.base), expr.count)
        if isinstance(expr, ast.FunctionPointerType):
            params = [self.resolve_type(p) for p in expr.params]
            ret = self.resolve_type(expr.return_type)
            return types.pointer(types.function(ret, params, expr.is_vararg))
        raise CodeGenError("unsupported type expression", expr.line)

    def _struct_type(self, name: str) -> types.StructType:
        existing = self.structs.get(name)
        if existing is not None:
            return existing
        created = types.named_struct(name)
        self.structs[name] = created
        self.module.add_named_type(created)
        return created

    def _field_index(self, struct_ty: types.StructType, field: str, line: int) -> int:
        fields = self.struct_fields.get(struct_ty.name or "", [])
        for index, (_, field_name) in enumerate(fields):
            if field_name == field:
                return index
        raise CodeGenError(
            f"struct {struct_ty.name!r} has no field {field!r}", line
        )

    # ======================================================================
    # Top level
    # ======================================================================

    def generate(self, program: ast.Program) -> Module:
        # First pass: type definitions, then function signatures (so
        # forward calls work), then globals, then bodies.
        for decl in program.declarations:
            if isinstance(decl, ast.Typedef):
                self.typedefs[decl.name] = decl.target
            elif isinstance(decl, ast.StructDecl):
                self._declare_struct(decl)
        for decl in program.declarations:
            if isinstance(decl, ast.FunctionDecl):
                self._declare_function(decl)
        self.builder = _ConstantFolder()
        for decl in program.declarations:
            if isinstance(decl, ast.GlobalDecl):
                self._define_global(decl)
        self.builder = IRBuilder()
        for decl in program.declarations:
            if isinstance(decl, ast.FunctionDecl) and decl.body is not None:
                self._define_function(decl)
        return self.module

    def _declare_struct(self, decl: ast.StructDecl) -> None:
        struct_ty = self._struct_type(decl.name)
        if not struct_ty.is_opaque:
            raise CodeGenError(f"struct {decl.name!r} redefined", decl.line)
        self.struct_fields[decl.name] = list(decl.fields)
        struct_ty.set_body([self.resolve_type(t) for t, _ in decl.fields])

    def _declare_function(self, decl: ast.FunctionDecl) -> Function:
        existing = self.module.functions.get(decl.name)
        params = [self.resolve_type(p.decl_type) for p in decl.params]
        ret = self.resolve_type(decl.return_type)
        fn_ty = types.function(ret, params, decl.is_vararg)
        if existing is not None:
            if existing.function_type is not fn_ty:
                raise CodeGenError(
                    f"function {decl.name!r} redeclared with a different type",
                    decl.line,
                )
            return existing
        linkage = Linkage.INTERNAL if decl.is_static else Linkage.EXTERNAL
        function = self.module.new_function(
            fn_ty, decl.name, linkage, [p.name for p in decl.params]
        )
        return function

    def _define_global(self, decl: ast.GlobalDecl) -> None:
        value_type = self.resolve_type(decl.decl_type)
        if decl.is_extern:
            self.module.new_global(value_type, decl.name, None)
            return
        initializer: Constant
        if decl.init is None:
            initializer = null_value(value_type)
        else:
            initializer = self._constant_expr(decl.init, value_type)
        linkage = Linkage.INTERNAL if decl.is_static else Linkage.EXTERNAL
        self.module.new_global(value_type, decl.name, initializer, linkage)

    def _constant_expr(self, expr: ast.Expr, target: types.Type) -> Constant:
        """Evaluate a global initializer expression to a constant."""
        if isinstance(expr, ast.IntLiteral):
            if target.is_integer:
                return ConstantInt(target, expr.value)  # type: ignore[arg-type]
            if target.is_floating:
                return ConstantFP(target, float(expr.value))  # type: ignore[arg-type]
            if target.is_pointer and expr.value == 0:
                return ConstantPointerNull(target)  # type: ignore[arg-type]
        if isinstance(expr, ast.FloatLiteral) and target.is_floating:
            return ConstantFP(target, expr.value)  # type: ignore[arg-type]
        if isinstance(expr, ast.BoolLiteral) and target.is_bool:
            return ConstantBool(expr.value)
        if isinstance(expr, ast.NullLiteral) and target.is_pointer:
            return ConstantPointerNull(target)  # type: ignore[arg-type]
        if isinstance(expr, ast.StringLiteral) and target.is_pointer:
            return self._string_pointer_constant(expr.data)
        if isinstance(expr, (ast.Unary, ast.Binary)) and target.is_integer:
            return constfold.fold_cast(self._run_time_value(expr), target)
        if isinstance(expr, ast.Unary) and expr.op == "-":
            inner = self._constant_expr(expr.operand, target)
            if isinstance(inner, ConstantFP):
                return ConstantFP(inner.type, -inner.value)  # type: ignore[arg-type]
        if isinstance(expr, ast.Identifier):
            symbol = self.module.functions.get(expr.name)
            if symbol is not None:
                if symbol.type is target:
                    return symbol
                return ConstantExpr("cast", target, (symbol,))
        raise CodeGenError("unsupported constant initializer", expr.line)

    def _run_time_value(self, expr: ast.Expr) -> Constant:
        """An integer initializer's value as ``T h() { return expr; }``
        computes it: literals typed as ``gen_expr`` types them, operators
        emitted by the same code with their conversions, and every
        instruction folded by constfold (the folding builder
        :meth:`generate` installs while it defines globals)."""
        if isinstance(expr, ast.Binary) and expr.op not in ("&&", "||"):
            lhs = self._run_time_value(expr.lhs)
            rhs = self._run_time_value(expr.rhs)
            return self._emit_binary(expr.op, lhs, rhs, expr.line)
        if isinstance(expr, ast.Unary) and expr.op in ("-", "~"):
            value = self._run_time_value(expr.operand)
            if value.type.is_integer:
                emit = self.builder.neg if expr.op == "-" else self.builder.not_
                return emit(value)
        if isinstance(expr, (ast.IntLiteral, ast.CharLiteral)):
            return self.gen_expr(expr)
        raise CodeGenError("unsupported constant initializer", expr.line)

    def _string_global(self, data: bytes) -> GlobalVariable:
        terminated = data if data.endswith(b"\0") else data + b"\0"
        cached = self.string_cache.get(terminated)
        if cached is None:
            self._string_counter += 1
            cached = self.module.new_global(
                types.array(types.SBYTE, len(terminated)),
                self.module.unique_symbol(f".str.{self._string_counter}"),
                ConstantString(terminated),
                linkage=Linkage.INTERNAL,
                is_constant=True,
            )
            self.string_cache[terminated] = cached
        return cached

    def _string_pointer_constant(self, data: bytes) -> Constant:
        global_var = self._string_global(data)
        zero = ConstantInt(types.LONG, 0)
        return ConstantExpr(
            "getelementptr", types.pointer(types.SBYTE), (global_var, zero, zero)
        )

    # ======================================================================
    # Function bodies
    # ======================================================================

    def _define_function(self, decl: ast.FunctionDecl) -> None:
        function = self.module.functions[decl.name]
        if function.blocks:
            raise CodeGenError(f"function {decl.name!r} redefined", decl.line)
        self.function = function
        entry = function.append_block("entry")
        self.builder.position_at_end(entry)
        self.builder.current_line = decl.line
        self.scope = _Scope()
        # Classic C front-end move: copy every parameter into a stack
        # slot; mem2reg promotes them back.
        for arg in function.args:
            slot = self.builder.alloca(arg.type, name=f"{arg.name}.addr")
            self.builder.store(arg, slot)
            self.scope.define(arg.name, slot)
        self.gen_block(decl.body)
        self._terminate_function(decl)
        self.function = None

    def _terminate_function(self, decl: ast.FunctionDecl) -> None:
        block = self.builder.block
        if block is not None and not block.is_terminated:
            ret_ty = self.function.return_type
            if ret_ty.is_void:
                self.builder.ret_void()
            else:
                self.builder.ret(null_value(ret_ty))

    # -- statements ---------------------------------------------------------------

    def gen_block(self, block: ast.Block) -> None:
        self.scope = _Scope(self.scope)
        for stmt in block.statements:
            self.gen_statement(stmt)
        self.scope = self.scope.parent  # type: ignore[assignment]

    def gen_statement(self, stmt: ast.Stmt) -> None:
        self.builder.current_line = stmt.line
        if self.builder.block is not None and self.builder.block.is_terminated:
            # Unreachable statement (code after return/break): emit into
            # a fresh dead block so the IR stays well-formed.
            dead = self.function.append_block("dead")
            self.builder.position_at_end(dead)
        if isinstance(stmt, ast.Block):
            self.gen_block(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.gen_expr(stmt.expr)
        elif isinstance(stmt, ast.DeclStmt):
            self._gen_decl(stmt)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._gen_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._gen_return(stmt)
        elif isinstance(stmt, ast.Break):
            self._gen_break(stmt)
        elif isinstance(stmt, ast.Continue):
            self._gen_continue(stmt)
        elif isinstance(stmt, ast.Switch):
            self._gen_switch(stmt)
        elif isinstance(stmt, ast.FreeStmt):
            pointer = self.gen_expr(stmt.pointer)
            if not pointer.type.is_pointer:
                raise CodeGenError("free of a non-pointer", stmt.line)
            self.builder.free(pointer)
        elif isinstance(stmt, ast.Try):
            self._gen_try(stmt)
        elif isinstance(stmt, ast.Throw):
            self._gen_throw(stmt)
        else:
            raise CodeGenError(f"unsupported statement {type(stmt).__name__}", stmt.line)

    def _gen_decl(self, stmt: ast.DeclStmt) -> None:
        value_type = self.resolve_type(stmt.decl_type)
        if value_type.is_void:
            raise CodeGenError("cannot declare a void variable", stmt.line)
        slot = self.builder.alloca(value_type, name=stmt.name)
        self.scope.define(stmt.name, slot)
        if stmt.init is not None:
            value = self.gen_expr(stmt.init)
            value = self.convert(value, value_type, stmt.line)
            self.builder.store(value, slot)

    def _gen_if(self, stmt: ast.If) -> None:
        cond = self._gen_condition(stmt.cond)
        then_block = self.function.append_block("if.then")
        merge_block = self.function.append_block("if.end")
        else_block = merge_block
        if stmt.otherwise is not None:
            else_block = self.function.append_block("if.else")
        self.builder.cond_br(cond, then_block, else_block)
        self.builder.position_at_end(then_block)
        self.gen_statement(stmt.then)
        if not self.builder.block.is_terminated:
            self.builder.br(merge_block)
        if stmt.otherwise is not None:
            self.builder.position_at_end(else_block)
            self.gen_statement(stmt.otherwise)
            if not self.builder.block.is_terminated:
                self.builder.br(merge_block)
        self.builder.position_at_end(merge_block)

    def _gen_while(self, stmt: ast.While) -> None:
        cond_block = self.function.append_block("while.cond")
        body_block = self.function.append_block("while.body")
        end_block = self.function.append_block("while.end")
        self.builder.br(cond_block)
        self.builder.position_at_end(cond_block)
        cond = self._gen_condition(stmt.cond)
        self.builder.cond_br(cond, body_block, end_block)
        self.builder.position_at_end(body_block)
        self.loop_stack.append((end_block, cond_block))
        self.gen_statement(stmt.body)
        self.loop_stack.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(cond_block)
        self.builder.position_at_end(end_block)

    def _gen_do_while(self, stmt: ast.DoWhile) -> None:
        body_block = self.function.append_block("do.body")
        cond_block = self.function.append_block("do.cond")
        end_block = self.function.append_block("do.end")
        self.builder.br(body_block)
        self.builder.position_at_end(body_block)
        self.loop_stack.append((end_block, cond_block))
        self.gen_statement(stmt.body)
        self.loop_stack.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(cond_block)
        self.builder.position_at_end(cond_block)
        cond = self._gen_condition(stmt.cond)
        self.builder.cond_br(cond, body_block, end_block)
        self.builder.position_at_end(end_block)

    def _gen_for(self, stmt: ast.For) -> None:
        self.scope = _Scope(self.scope)
        if stmt.init is not None:
            self.gen_statement(stmt.init)
        cond_block = self.function.append_block("for.cond")
        body_block = self.function.append_block("for.body")
        step_block = self.function.append_block("for.step")
        end_block = self.function.append_block("for.end")
        self.builder.br(cond_block)
        self.builder.position_at_end(cond_block)
        if stmt.cond is not None:
            cond = self._gen_condition(stmt.cond)
            self.builder.cond_br(cond, body_block, end_block)
        else:
            self.builder.br(body_block)
        self.builder.position_at_end(body_block)
        self.loop_stack.append((end_block, step_block))
        self.gen_statement(stmt.body)
        self.loop_stack.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(step_block)
        self.builder.position_at_end(step_block)
        if stmt.step is not None:
            self.gen_expr(stmt.step)
        self.builder.br(cond_block)
        self.builder.position_at_end(end_block)
        self.scope = self.scope.parent  # type: ignore[assignment]

    def _gen_return(self, stmt: ast.Return) -> None:
        ret_ty = self.function.return_type
        if stmt.value is None:
            if not ret_ty.is_void:
                raise CodeGenError("return without a value", stmt.line)
            self.builder.ret_void()
            return
        value = self.gen_expr(stmt.value)
        value = self.convert(value, ret_ty, stmt.line)
        self.builder.ret(value)

    def _gen_break(self, stmt: ast.Break) -> None:
        if not self.loop_stack:
            raise CodeGenError("break outside a loop or switch", stmt.line)
        self.builder.br(self.loop_stack[-1][0])

    def _gen_continue(self, stmt: ast.Continue) -> None:
        for target, continue_block in reversed(self.loop_stack):
            if continue_block is not None:
                self.builder.br(continue_block)
                return
        raise CodeGenError("continue outside a loop", stmt.line)

    def _gen_switch(self, stmt: ast.Switch) -> None:
        value = self.gen_expr(stmt.value)
        if not value.type.is_integer:
            raise CodeGenError("switch value must be an integer", stmt.line)
        end_block = self.function.append_block("switch.end")
        case_blocks = [
            self.function.append_block(f"case.{case_value}")
            for case_value, _ in stmt.cases
        ]
        default_block = end_block
        if stmt.default_body is not None:
            default_block = self.function.append_block("case.default")
        cases = [
            (ConstantInt(value.type, case_value), block)  # type: ignore[arg-type]
            for (case_value, _), block in zip(stmt.cases, case_blocks)
        ]
        self.builder.switch(value, default_block, cases)
        self.loop_stack.append((end_block, None))
        # Fallthrough order: each case block falls into the next, then
        # the default (matching C source order with default last).
        bodies = [body for _, body in stmt.cases]
        blocks = list(case_blocks)
        if stmt.default_body is not None:
            bodies.append(stmt.default_body)
            blocks.append(default_block)
        for index, (block, body) in enumerate(zip(blocks, bodies)):
            self.builder.position_at_end(block)
            for inner in body:
                self.gen_statement(inner)
            if not self.builder.block.is_terminated:
                next_block = blocks[index + 1] if index + 1 < len(blocks) else end_block
                self.builder.br(next_block)
        self.loop_stack.pop()
        self.builder.position_at_end(end_block)

    def _gen_try(self, stmt: ast.Try) -> None:
        handler_block = self.function.append_block("catch")
        end_block = self.function.append_block("try.end")
        self.try_stack.append(handler_block)
        self.gen_block(stmt.body)
        self.try_stack.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(end_block)
        self.builder.position_at_end(handler_block)
        self.gen_block(stmt.handler)
        if not self.builder.block.is_terminated:
            self.builder.br(end_block)
        self.builder.position_at_end(end_block)

    def _gen_throw(self, stmt: ast.Throw) -> None:
        if self.try_stack:
            # Paper section 2.4: a throw inside the try block becomes an
            # explicit branch to the catch block.
            self.builder.br(self.try_stack[-1])
        else:
            self.builder.unwind()

    # ======================================================================
    # Expressions
    # ======================================================================

    def _gen_condition(self, expr: ast.Expr) -> Value:
        value = self.gen_expr(expr)
        return self._to_bool(value, expr.line)

    def _to_bool(self, value: Value, line: int) -> Value:
        if value.type.is_bool:
            return value
        if value.type.is_integer or value.type.is_floating:
            return self.builder.setne(value, null_value(value.type), "tobool")
        if value.type.is_pointer:
            return self.builder.setne(
                value, ConstantPointerNull(value.type), "tobool"
            )
        raise CodeGenError(f"cannot use {value.type} as a condition", line)

    def gen_expr(self, expr: ast.Expr) -> Value:
        method = getattr(self, "_gen_" + type(expr).__name__.lower(), None)
        if method is None:
            raise CodeGenError(f"unsupported expression {type(expr).__name__}", expr.line)
        self.builder.current_line = expr.line
        return method(expr)

    # -- literals --------------------------------------------------------------

    def _gen_intliteral(self, expr: ast.IntLiteral) -> Value:
        if types.INT.min_value <= expr.value <= types.INT.max_value:
            return ConstantInt(types.INT, expr.value)
        return ConstantInt(types.LONG, expr.value)

    def _gen_floatliteral(self, expr: ast.FloatLiteral) -> Value:
        return ConstantFP(types.DOUBLE, expr.value)

    def _gen_boolliteral(self, expr: ast.BoolLiteral) -> Value:
        return ConstantBool(expr.value)

    def _gen_nullliteral(self, expr: ast.NullLiteral) -> Value:
        return ConstantPointerNull(types.pointer(types.SBYTE))

    def _gen_charliteral(self, expr: ast.CharLiteral) -> Value:
        return ConstantInt(types.SBYTE, expr.value)

    def _gen_stringliteral(self, expr: ast.StringLiteral) -> Value:
        global_var = self._string_global(expr.data)
        zero = ConstantInt(types.LONG, 0)
        return self.builder.gep(global_var, [zero, zero], "str")

    def _gen_identifier(self, expr: ast.Identifier) -> Value:
        address = self._lookup(expr.name, expr.line)
        if isinstance(address, Function):
            return address
        pointee = address.type.pointee
        if pointee.is_array:
            # Array-to-pointer decay.
            zero = ConstantInt(types.LONG, 0)
            return self.builder.gep(address, [zero, zero], f"{expr.name}.decay")
        if pointee.is_struct:
            raise CodeGenError(
                f"struct value {expr.name!r} used where a scalar is needed "
                "(take a field or its address)", expr.line)
        return self.builder.load(address, expr.name)

    def _lookup(self, name: str, line: int) -> Value:
        local = self.scope.lookup(name)
        if local is not None:
            return local
        symbol = self.module.get_symbol(name)
        if symbol is not None:
            return symbol
        raise CodeGenError(f"undefined identifier {name!r}", line)

    # -- lvalues ----------------------------------------------------------------

    def gen_addr(self, expr: ast.Expr) -> Value:
        """Generate the *address* of an lvalue expression."""
        if isinstance(expr, ast.Identifier):
            address = self._lookup(expr.name, expr.line)
            if isinstance(address, Function):
                raise CodeGenError("a function is not an lvalue", expr.line)
            return address
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointer = self.gen_expr(expr.operand)
            if not pointer.type.is_pointer:
                raise CodeGenError("cannot dereference a non-pointer", expr.line)
            return pointer
        if isinstance(expr, ast.Index):
            return self._gen_index_addr(expr)
        if isinstance(expr, ast.Member):
            return self._gen_member_addr(expr)
        raise CodeGenError("expression is not an lvalue", expr.line)

    def _gen_index_addr(self, expr: ast.Index) -> Value:
        index = self.gen_expr(expr.index)
        index = self.convert(index, types.LONG, expr.line)
        if isinstance(expr.base, ast.Expr):
            base_addr = self._addr_or_value(expr.base)
        pointee = base_addr.type.pointee
        if pointee.is_array:
            zero = ConstantInt(types.LONG, 0)
            return self.builder.gep(base_addr, [zero, index], "arrayidx")
        return self.builder.gep(base_addr, [index], "ptridx")

    def _addr_or_value(self, expr: ast.Expr) -> Value:
        """For ``a[i]``: if ``a`` is an array lvalue use its address; if
        it is a pointer rvalue use its value."""
        if isinstance(expr, (ast.Identifier, ast.Member, ast.Index)):
            try:
                address = self.gen_addr(expr)
            except CodeGenError:
                return self.gen_expr(expr)
            pointee = address.type.pointee
            if pointee.is_array:
                return address
            if pointee.is_pointer:
                return self.builder.load(address, "ptr")
            return address
        value = self.gen_expr(expr)
        if not value.type.is_pointer:
            raise CodeGenError("cannot index a non-pointer", expr.line)
        return value

    def _gen_member_addr(self, expr: ast.Member) -> Value:
        if expr.arrow:
            base = self.gen_expr(expr.base)
            if not base.type.is_pointer or not base.type.pointee.is_struct:
                raise CodeGenError("-> requires a struct pointer", expr.line)
            struct_ty = base.type.pointee
        else:
            base = self.gen_addr(expr.base)
            if not base.type.pointee.is_struct:
                raise CodeGenError(". requires a struct value", expr.line)
            struct_ty = base.type.pointee
        index = self._field_index(struct_ty, expr.field, expr.line)
        return self.builder.struct_gep(base, index, expr.field)

    # -- operators ---------------------------------------------------------------

    def _gen_unary(self, expr: ast.Unary) -> Value:
        op = expr.op
        if op == "&":
            return self.gen_addr(expr.operand)
        if op == "*":
            pointer = self.gen_expr(expr.operand)
            if not pointer.type.is_pointer:
                raise CodeGenError("cannot dereference a non-pointer", expr.line)
            if pointer.type.pointee.is_struct or pointer.type.pointee.is_array:
                return pointer  # struct deref used as lvalue base
            return self.builder.load(pointer, "deref")
        if op == "-":
            value = self.gen_expr(expr.operand)
            if not value.type.is_arithmetic:
                raise CodeGenError("unary - needs a numeric operand", expr.line)
            return self.builder.neg(value, "neg")
        if op == "~":
            value = self.gen_expr(expr.operand)
            if not value.type.is_integer:
                raise CodeGenError("~ needs an integer operand", expr.line)
            return self.builder.not_(value, "not")
        if op == "!":
            value = self._gen_condition(expr.operand)
            return self.builder.not_(value, "lnot")
        if op in ("pre++", "pre--", "post++", "post--"):
            return self._gen_incdec(expr)
        raise CodeGenError(f"unsupported unary operator {op!r}", expr.line)

    def _gen_incdec(self, expr: ast.Unary) -> Value:
        address = self.gen_addr(expr.operand)
        old = self.builder.load(address, "old")
        delta_op = "+" if "++" in expr.op else "-"
        if old.type.is_pointer:
            one = ConstantInt(types.LONG, 1 if delta_op == "+" else -1)
            new = self.builder.gep(old, [one], "incdec")
        elif old.type.is_integer:
            one = ConstantInt(old.type, 1)  # type: ignore[arg-type]
            if delta_op == "+":
                new = self.builder.add(old, one, "inc")
            else:
                new = self.builder.sub(old, one, "dec")
        else:
            raise CodeGenError("++/-- needs an integer or pointer", expr.line)
        self.builder.store(new, address)
        return new if expr.op.startswith("pre") else old

    def _gen_binary(self, expr: ast.Binary) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            return self._gen_logical(expr)
        lhs = self.gen_expr(expr.lhs)
        rhs = self.gen_expr(expr.rhs)
        return self._emit_binary(op, lhs, rhs, expr.line)

    def _emit_binary(self, op: str, lhs: Value, rhs: Value, line: int) -> Value:
        # Pointer arithmetic.
        if lhs.type.is_pointer and op in ("+", "-") and rhs.type.is_integer:
            index = self.convert(rhs, types.LONG, line)
            if op == "-":
                index = self.builder.neg(index, "idx.neg")
            return self.builder.gep(lhs, [index], "ptradd")
        if rhs.type.is_pointer and op == "+" and lhs.type.is_integer:
            index = self.convert(lhs, types.LONG, line)
            return self.builder.gep(rhs, [index], "ptradd")
        if lhs.type.is_pointer and rhs.type.is_pointer:
            if op in _COMPARE_OPS:
                rhs2 = self._pointer_compare_operand(rhs, lhs.type, line)
                return self.builder._binary(_COMPARE_OPS[op], lhs, rhs2, "cmp")
            if op == "-":
                left = self.builder.cast(lhs, types.LONG, "p2l")
                right = self.builder.cast(rhs, types.LONG, "p2l")
                diff = self.builder.sub(left, right, "ptrdiff")
                size = self.module.data_layout.size_of(lhs.type.pointee)
                if size > 1:
                    diff = self.builder.div(diff, ConstantInt(types.LONG, size), "ptrdiff")
                return diff
            raise CodeGenError(f"unsupported pointer operation {op!r}", line)
        if (lhs.type.is_pointer or rhs.type.is_pointer) and op in _COMPARE_OPS:
            # pointer vs null literal / integer zero
            if lhs.type.is_pointer:
                rhs = self._pointer_compare_operand(rhs, lhs.type, line)
                return self.builder._binary(_COMPARE_OPS[op], lhs, rhs, "cmp")
            lhs = self._pointer_compare_operand(lhs, rhs.type, line)
            return self.builder._binary(_COMPARE_OPS[op], lhs, rhs, "cmp")
        # Shifts: the amount is always ubyte.
        if op in ("<<", ">>"):
            if not lhs.type.is_integer:
                raise CodeGenError("shift needs an integer", line)
            amount = self.convert(rhs, types.UBYTE, line)
            if op == "<<":
                return self.builder.shl(lhs, amount, "shl")
            return self.builder.shr(lhs, amount, "shr")
        # Usual arithmetic conversions for the numeric/bool cases.
        lhs, rhs = self._usual_conversions(lhs, rhs, line)
        if op in _COMPARE_OPS:
            return self.builder._binary(_COMPARE_OPS[op], lhs, rhs, "cmp")
        if op in _ARITH_OPS:
            if op in ("&", "|", "^"):
                if not lhs.type.is_integral:
                    raise CodeGenError(f"{op} needs integral operands", line)
            elif not lhs.type.is_arithmetic:
                raise CodeGenError(f"{op} needs numeric operands", line)
            return self.builder._binary(_ARITH_OPS[op], lhs, rhs, "arith")
        raise CodeGenError(f"unsupported binary operator {op!r}", line)

    def _pointer_compare_operand(self, value: Value, pointer_type: types.Type,
                                 line: int) -> Value:
        if value.type is pointer_type:
            return value
        if isinstance(value, ConstantPointerNull):
            return ConstantPointerNull(pointer_type)  # type: ignore[arg-type]
        if isinstance(value, ConstantInt) and value.value == 0:
            return ConstantPointerNull(pointer_type)  # type: ignore[arg-type]
        if value.type.is_pointer:
            return self.builder.cast(value, pointer_type, "ptrcmp")
        raise CodeGenError("cannot compare pointer with non-pointer", line)

    def _usual_conversions(self, lhs: Value, rhs: Value, line: int) -> tuple[Value, Value]:
        if lhs.type is rhs.type:
            return lhs, rhs
        common = _common_type(lhs.type, rhs.type)
        if common is None:
            raise CodeGenError(
                f"incompatible operand types {lhs.type} and {rhs.type}", line
            )
        return (self.convert(lhs, common, line), self.convert(rhs, common, line))

    def _entry_alloca(self, ty: types.Type, name: str) -> Value:
        """Allocate a slot at the top of the entry block so it dominates
        every store generated for the expression's arms."""
        from ..core.instructions import AllocaInst

        slot = AllocaInst(ty, None, name)
        slot.loc = self.builder.current_line
        self.function.entry_block.insert(0, slot)
        return slot

    def _gen_logical(self, expr: ast.Binary) -> Value:
        """Short-circuit && and || via control flow and a bool slot."""
        slot = self._entry_alloca(types.BOOL, "sc")
        lhs = self._gen_condition(expr.lhs)
        rhs_block = self.function.append_block("sc.rhs")
        end_block = self.function.append_block("sc.end")
        self.builder.store(lhs, slot)
        if expr.op == "&&":
            self.builder.cond_br(lhs, rhs_block, end_block)
        else:
            self.builder.cond_br(lhs, end_block, rhs_block)
        self.builder.position_at_end(rhs_block)
        rhs = self._gen_condition(expr.rhs)
        self.builder.store(rhs, slot)
        self.builder.br(end_block)
        self.builder.position_at_end(end_block)
        return self.builder.load(slot, "sc.val")

    def _gen_assign(self, expr: ast.Assign) -> Value:
        address = self.gen_addr(expr.target)
        target_ty = address.type.pointee
        if expr.op is None:
            value = self.gen_expr(expr.value)
        else:
            old = self.builder.load(address, "cur")
            rhs = self.gen_expr(expr.value)
            value = self._emit_binary(expr.op, old, rhs, expr.line)
        value = self.convert(value, target_ty, expr.line)
        self.builder.store(value, address)
        return value

    def _gen_conditional(self, expr: ast.Conditional) -> Value:
        cond = self._gen_condition(expr.cond)
        then_block = self.function.append_block("cond.then")
        else_block = self.function.append_block("cond.else")
        end_block = self.function.append_block("cond.end")
        self.builder.cond_br(cond, then_block, else_block)
        self.builder.position_at_end(then_block)
        then_value = self.gen_expr(expr.then)
        then_exit = self.builder.block
        self.builder.position_at_end(else_block)
        else_value = self.gen_expr(expr.otherwise)
        if else_value.type is not then_value.type:
            else_value = self.convert(else_value, then_value.type, expr.line)
        else_exit = self.builder.block
        # A slot (not a phi): the front-end stays out of the SSA business.
        slot = self._entry_alloca(then_value.type, "cond.slot")
        self.builder.position_at_end(then_exit)
        self.builder.store(then_value, slot)
        self.builder.br(end_block)
        self.builder.position_at_end(else_exit)
        self.builder.store(else_value, slot)
        self.builder.br(end_block)
        self.builder.position_at_end(end_block)
        return self.builder.load(slot, "cond.val")

    def _gen_cast(self, expr: ast.Cast) -> Value:
        target = self.resolve_type(expr.target_type)
        value = self.gen_expr(expr.value)
        if value.type is target:
            return value
        if isinstance(value, ConstantPointerNull) and target.is_pointer:
            return ConstantPointerNull(target)  # type: ignore[arg-type]
        if isinstance(value, ConstantInt) and target.is_integer:
            return ConstantInt(target, value.value)  # type: ignore[arg-type]
        return self.builder.cast(value, target, "cast")

    def _gen_sizeof(self, expr: ast.SizeOf) -> Value:
        target = self.resolve_type(expr.target_type)
        return ConstantInt(types.LONG, self.module.data_layout.size_of(target))

    def _gen_mallocexpr(self, expr: ast.MallocExpr) -> Value:
        target = self.resolve_type(expr.target_type)
        count = None
        if expr.count is not None:
            count = self.convert(self.gen_expr(expr.count), types.UINT, expr.line)
        return self.builder.malloc(target, count, "new")

    def _gen_call(self, expr: ast.Call) -> Value:
        callee: Value
        if isinstance(expr.callee, ast.Identifier):
            symbol = self.scope.lookup(expr.callee.name)
            if symbol is None:
                symbol = self.module.get_symbol(expr.callee.name)
            if symbol is None:
                raise CodeGenError(
                    f"call to undeclared function {expr.callee.name!r}",
                    expr.line,
                )
            if isinstance(symbol, Function):
                callee = symbol
            else:
                callee = self.builder.load(symbol, expr.callee.name)
        else:
            callee = self.gen_expr(expr.callee)
        if not (callee.type.is_pointer and callee.type.pointee.is_function):
            raise CodeGenError("calling a non-function", expr.line)
        fn_ty = callee.type.pointee
        args: list[Value] = []
        for index, arg_expr in enumerate(expr.args):
            value = self.gen_expr(arg_expr)
            if index < len(fn_ty.params):
                value = self.convert(value, fn_ty.params[index], arg_expr.line)
            else:
                value = self._default_promote(value, arg_expr.line)
            args.append(value)
        if len(args) < len(fn_ty.params):
            raise CodeGenError("too few arguments", expr.line)
        if len(args) > len(fn_ty.params) and not fn_ty.is_vararg:
            raise CodeGenError("too many arguments", expr.line)
        if self.try_stack:
            # Paper section 2.4: any call within a try block becomes an
            # invoke whose unwind destination is the catch handler.
            normal = self.function.append_block("invoke.cont")
            result = self.builder.invoke(
                callee, args, normal, self.try_stack[-1], "call"
            )
            self.builder.position_at_end(normal)
            return result
        return self.builder.call(callee, args, "call")

    def _default_promote(self, value: Value, line: int) -> Value:
        """C default argument promotions for variadic arguments."""
        ty = value.type
        if ty.is_floating and ty.bits == 32:  # type: ignore[attr-defined]
            return self.convert(value, types.DOUBLE, line)
        if ty.is_integer and ty.bits < 32:  # type: ignore[attr-defined]
            return self.convert(value, types.INT, line)
        if ty.is_bool:
            return self.convert(value, types.INT, line)
        return value

    def _gen_member(self, expr: ast.Member) -> Value:
        address = self._gen_member_addr(expr)
        pointee = address.type.pointee
        if pointee.is_array:
            zero = ConstantInt(types.LONG, 0)
            return self.builder.gep(address, [zero, zero], "decay")
        if pointee.is_struct:
            raise CodeGenError("struct field used as a scalar", expr.line)
        return self.builder.load(address, expr.field)

    def _gen_index(self, expr: ast.Index) -> Value:
        address = self._gen_index_addr(expr)
        pointee = address.type.pointee
        if pointee.is_array:
            zero = ConstantInt(types.LONG, 0)
            return self.builder.gep(address, [zero, zero], "decay")
        if pointee.is_struct:
            return address
        return self.builder.load(address, "elem")

    # ======================================================================
    # Conversions
    # ======================================================================

    def convert(self, value: Value, target: types.Type, line: int) -> Value:
        """Implicit conversion (numeric widening/narrowing, bool, null)."""
        source = value.type
        if source is target:
            return value
        if isinstance(value, ConstantInt) and target.is_integer:
            return ConstantInt(target, value.value)  # type: ignore[arg-type]
        if isinstance(value, ConstantInt) and target.is_floating:
            return ConstantFP(target, float(value.value))  # type: ignore[arg-type]
        if isinstance(value, ConstantFP) and target.is_floating:
            return ConstantFP(target, value.value)  # type: ignore[arg-type]
        if isinstance(value, ConstantPointerNull) and target.is_pointer:
            return ConstantPointerNull(target)  # type: ignore[arg-type]
        if isinstance(value, ConstantInt) and value.value == 0 and target.is_pointer:
            return ConstantPointerNull(target)  # type: ignore[arg-type]
        if source.is_bool and (target.is_integer or target.is_floating):
            return self.builder.cast(value, target, "conv")
        if target.is_bool and (source.is_integer or source.is_pointer):
            return self._to_bool(value, line)
        if (source.is_integer or source.is_floating) and (
            target.is_integer or target.is_floating
        ):
            return self.builder.cast(value, target, "conv")
        raise CodeGenError(
            f"cannot implicitly convert {source} to {target} "
            "(use an explicit cast)", line
        )


def _common_type(a: types.Type, b: types.Type) -> Optional[types.Type]:
    """Simplified usual arithmetic conversions."""
    if a is b:
        return a
    if a.is_floating or b.is_floating:
        if a.is_floating and b.is_floating:
            return a if a.bits >= b.bits else b  # type: ignore[attr-defined]
        floating = a if a.is_floating else b
        other = b if a.is_floating else a
        if other.is_integer or other.is_bool:
            return floating
        return None
    if a.is_bool and b.is_integral:
        return b if b.is_integer else a
    if b.is_bool and a.is_integral:
        return a if a.is_integer else b
    if a.is_integer and b.is_integer:
        if a.bits != b.bits:  # type: ignore[attr-defined]
            return a if a.bits > b.bits else b  # type: ignore[attr-defined]
        # Same width: unsigned wins.
        return a if not a.signed else b  # type: ignore[attr-defined]
    return None

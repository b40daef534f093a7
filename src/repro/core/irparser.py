"""Plain-text representation reader (paper section 2.5).

Parses the textual form produced by :mod:`repro.core.printer` back into
in-memory IR with no information loss.  Being able to convert between
the representations makes debugging transformations simpler and lets
test cases be written as text.

The parser is a hand-written lexer + recursive descent parser.  Forward
references are handled with placeholders: branch targets and phi
operands may name blocks/values defined later in the function, and
calls may name functions defined later in the module.
"""

from __future__ import annotations

import re
from typing import Optional

from . import types
from .basicblock import BasicBlock
from .instructions import (
    BINARY_OPCODES, AllocaInst, BinaryOperator, BranchInst, CallInst,
    CastInst, FreeInst, GetElementPtrInst, InvokeInst, LoadInst, MallocInst,
    Opcode, PhiNode, ReturnInst, ShiftInst, StoreInst, SwitchInst,
    UnwindInst, VAArgInst,
)
from .module import Function, GlobalVariable, Linkage, Module
from .values import (
    Constant, ConstantAggregateZero, ConstantArray, ConstantBool,
    ConstantExpr, ConstantFP, ConstantInt, ConstantPointerNull,
    ConstantString, ConstantStruct, UndefValue, Value,
)


class ParseError(Exception):
    """Raised on malformed IR text, with a line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_PUNCT = {"(", ")", "{", "}", "[", "]", ",", "=", "*", ":"}


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind  # 'word', 'local' (%foo), 'int', 'float', 'string', 'bang' (!loc), punct, 'dotdotdot', 'eof'
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r})"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    index = 0
    length = len(source)
    while index < length:
        char = source[index]
        if char == "\n":
            line += 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            continue
        if char == ";":
            while index < length and source[index] != "\n":
                index += 1
            continue
        if source.startswith("...", index):
            tokens.append(Token("dotdotdot", "...", line))
            index += 3
            continue
        if char == "!":
            # Metadata suffix such as ``!loc 42``; the token text is the
            # metadata kind word following the '!'.
            index += 1
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            if start == index:
                raise ParseError("empty !-metadata name", line)
            tokens.append(Token("bang", source[start:index], line))
            continue
        if char in _PUNCT:
            tokens.append(Token(char, char, line))
            index += 1
            continue
        if char == "%":
            index += 1
            if index < length and source[index] == '"':
                index += 1
                name_chars = []
                while index < length and source[index] != '"':
                    if source[index] == "\\" and index + 1 < length:
                        index += 1
                    name_chars.append(source[index])
                    index += 1
                index += 1  # closing quote
                tokens.append(Token("local", "".join(name_chars), line))
            else:
                start = index
                while index < length and (source[index].isalnum() or source[index] in "._"):
                    index += 1
                if start == index:
                    raise ParseError("empty %-name", line)
                tokens.append(Token("local", source[start:index], line))
            continue
        if char == "c" and index + 1 < length and source[index + 1] == '"':
            index += 2
            data = bytearray()
            while index < length and source[index] != '"':
                if source[index] == "\\":
                    hex_digits = source[index + 1:index + 3]
                    data.append(int(hex_digits, 16))
                    index += 3
                else:
                    data.append(ord(source[index]))
                    index += 1
            index += 1
            tokens.append(Token("string", data.decode("latin-1"), line))
            continue
        if char.isdigit() or (char == "-" and index + 1 < length
                              and (source[index + 1].isdigit() or source[index + 1] == "i")):
            start = index
            if char == "-":
                index += 1
            if source.startswith("inf", index):
                index += 3
                tokens.append(Token("float", source[start:index], line))
                continue
            while index < length and source[index].isdigit():
                index += 1
            is_float = False
            if index < length and source[index] == ".":
                is_float = True
                index += 1
                while index < length and source[index].isdigit():
                    index += 1
            if index < length and source[index] in "eE":
                is_float = True
                index += 1
                if index < length and source[index] in "+-":
                    index += 1
                while index < length and source[index].isdigit():
                    index += 1
            kind = "float" if is_float else "int"
            tokens.append(Token(kind, source[start:index], line))
            continue
        if char == '"':
            # A bare quoted word: block labels with awkward characters
            # print as ``"entry block":``.
            index += 1
            name_chars = []
            while index < length and source[index] != '"':
                if source[index] == "\\" and index + 1 < length:
                    index += 1
                name_chars.append(source[index])
                index += 1
            index += 1
            tokens.append(Token("word", "".join(name_chars), line))
            continue
        if char.isalpha() or char == "_":
            start = index
            # Dots are allowed inside bare words (block labels like
            # ``while.cond:``); opcodes and keywords never contain them.
            while index < length and (source[index].isalnum() or source[index] in "._"):
                index += 1
            tokens.append(Token("word", source[start:index], line))
            continue
        raise ParseError(f"unexpected character {char!r}", line)
    tokens.append(Token("eof", "", line))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

#: The binary opcodes by their textual names (an opcode's value is its
#: spelling).
_BINARY_SPELLINGS = frozenset(opcode.value for opcode in BINARY_OPCODES)


class _ForwardValue(Value):
    """Placeholder for a local value referenced before its definition."""

    __slots__ = ("ref_name",)

    def __init__(self, ty: types.Type, ref_name: str):
        super().__init__(ty, "")
        self.ref_name = ref_name


class Parser:
    def __init__(self, source: str, module: Module):
        self.tokens = tokenize(source)
        self.position = 0
        self.module = module
        # Module-level symbols created by forward reference, not yet defined.
        self._forward_functions: dict[str, Function] = {}
        self._forward_globals: dict[str, GlobalVariable] = {}

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.position + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "eof":
            self.position += 1
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.peek()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise ParseError(f"expected {wanted!r}, found {token.text!r}", token.line)
        return self.next()

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek().line)

    # -- types ----------------------------------------------------------------

    def parse_type(self) -> types.Type:
        token = self.peek()
        if token.kind == "word" and token.text in types.PRIMITIVES:
            self.next()
            base: types.Type = types.PRIMITIVES[token.text]
        elif token.kind == "local":
            self.next()
            base = self._named_type(token.text)
        elif token.kind == "{":
            base = self._parse_struct_body()
        elif token.kind == "[":
            self.next()
            count = int(self.expect("int").text)
            self.expect("word", "x")
            element = self.parse_type()
            self.expect("]")
            base = types.array(element, count)
        else:
            raise self.error(f"expected a type, found {token.text!r}")
        # Suffixes: '*' for pointers, '(...)' for function types.
        while True:
            if self.accept("*"):
                base = types.pointer(base)
            elif self.peek().kind == "(" and self._looks_like_function_type():
                base = self._parse_function_suffix(base)
            else:
                break
        return base

    def _looks_like_function_type(self) -> bool:
        """Disambiguate a function-type suffix from call-argument syntax.

        A '(' directly after a type is only a function type in type
        position; callers only invoke parse_type where that holds, so
        always treat it as a suffix.
        """
        return True

    def _parse_function_suffix(self, return_type: types.Type) -> types.Type:
        self.expect("(")
        params: list[types.Type] = []
        is_vararg = False
        if not self.accept(")"):
            while True:
                if self.accept("dotdotdot"):
                    is_vararg = True
                    break
                params.append(self.parse_type())
                if not self.accept(","):
                    break
            self.expect(")")
        return types.function(return_type, params, is_vararg)

    def _parse_struct_body(self) -> types.Type:
        self.expect("{")
        fields: list[types.Type] = []
        if not self.accept("}"):
            while True:
                fields.append(self.parse_type())
                if not self.accept(","):
                    break
            self.expect("}")
        return types.struct(fields)

    def _named_type(self, name: str) -> types.StructType:
        existing = self.module.named_types.get(name)
        if existing is not None:
            return existing
        created = types.named_struct(name)  # opaque until '= type' seen
        self.module.add_named_type(created)
        return created

    # -- module items ------------------------------------------------------------

    def parse_module(self) -> Module:
        while self.peek().kind != "eof":
            token = self.peek()
            if token.kind == "word" and token.text == "declare":
                self._parse_declare()
            elif token.kind == "local" and self.peek(1).kind == "=":
                self._parse_named_item()
            elif token.kind == "local":
                # A function definition whose return type is a named
                # struct (e.g. ``%Node* %push(...)``).
                self._parse_function_definition(linkage=Linkage.EXTERNAL)
            elif token.kind == "word":
                self._parse_function_definition(linkage=Linkage.EXTERNAL)
            else:
                raise self.error(f"unexpected token {token.text!r} at module level")
        self._finish_module()
        return self.module

    def _finish_module(self) -> None:
        for name, function in self._forward_functions.items():
            # Still undefined at end of module: keep it as a declaration.
            if name not in self.module.functions:
                self.module.add_function(function)
        for name, global_var in self._forward_globals.items():
            if name not in self.module.globals:
                self.module.add_global(global_var)

    def _parse_named_item(self) -> None:
        """``%name = type/global/constant ...`` at module level."""
        name = self.expect("local").text
        self.expect("=")
        linkage = Linkage.EXTERNAL
        token = self.peek()
        if token.kind == "word" and token.text in (Linkage.INTERNAL, Linkage.APPENDING):
            linkage = token.text
            self.next()
            token = self.peek()
        if token.kind == "word" and token.text == "type":
            self.next()
            self._parse_type_definition(name)
            return
        is_external = False
        if token.kind == "word" and token.text == "external":
            is_external = True
            self.next()
            token = self.peek()
        if token.kind == "word" and token.text in ("global", "constant"):
            is_constant = token.text == "constant"
            self.next()
            if is_external:
                value_type = self.parse_type()
                self._define_global(name, value_type, None, linkage, is_constant)
            else:
                initializer = self.parse_typed_constant()
                self._define_global(name, initializer.type, initializer, linkage, is_constant)
            return
        # Otherwise this is a function definition header written as
        # ``%name = ...`` — not produced by our printer.
        raise self.error(f"unexpected module item after %{name}")

    def _parse_type_definition(self, name: str) -> None:
        if self.accept("word", "opaque"):
            self._named_type(name)
            return
        struct_ty = self._named_type(name)
        literal = self._parse_struct_body()
        struct_ty.set_body(literal.fields)  # type: ignore[attr-defined]

    def _define_global(self, name: str, value_type: types.Type,
                       initializer: Optional[Constant], linkage: str,
                       is_constant: bool) -> None:
        forward = self._forward_globals.pop(name, None)
        if forward is not None:
            if forward.value_type is not value_type:
                raise self.error(
                    f"global %{name} type mismatch with earlier use"
                )
            forward.linkage = linkage
            forward.is_constant = is_constant
            forward.set_initializer(initializer)
            self.module.add_global(forward)
            return
        self.module.new_global(value_type, name, initializer, linkage, is_constant)

    def _parse_declare(self) -> None:
        self.expect("word", "declare")
        linkage = Linkage.EXTERNAL
        if self.peek().kind == "word" and self.peek().text == Linkage.INTERNAL:
            linkage = self.next().text
        return_type = self.parse_type()
        name = self.expect("local").text
        fn_type, arg_names = self._parse_param_list(return_type, want_names=True)
        function = self._get_or_create_function(name, fn_type, linkage)
        for arg, arg_name in zip(function.args, arg_names):
            if arg_name:
                arg.name = arg_name

    def _parse_function_definition(self, linkage: str) -> Function:
        token = self.peek()
        if token.text == Linkage.INTERNAL:
            linkage = token.text
            self.next()
        return_type = self.parse_type()
        name = self.expect("local").text
        fn_type, arg_names = self._parse_param_list(return_type, want_names=True)
        function = self._get_or_create_function(name, fn_type, linkage)
        function.linkage = linkage
        for arg, arg_name in zip(function.args, arg_names):
            if arg_name:
                arg.name = arg_name
        self.expect("{")
        _FunctionBodyParser(self, function).parse()
        self.expect("}")
        return function

    def _parse_param_list(self, return_type: types.Type,
                          want_names: bool) -> tuple[types.FunctionType, list[str]]:
        self.expect("(")
        params: list[types.Type] = []
        names: list[str] = []
        is_vararg = False
        if not self.accept(")"):
            while True:
                if self.accept("dotdotdot"):
                    is_vararg = True
                    break
                params.append(self.parse_type())
                if self.peek().kind == "local":
                    names.append(self.next().text)
                else:
                    names.append("")
                if not self.accept(","):
                    break
            self.expect(")")
        return types.function(return_type, params, is_vararg), names

    def _get_or_create_function(self, name: str, fn_type: types.FunctionType,
                                linkage: str = Linkage.EXTERNAL) -> Function:
        existing = self.module.functions.get(name) or self._forward_functions.get(name)
        if existing is not None:
            if existing.function_type is not fn_type:
                raise self.error(f"function %{name} signature mismatch")
            if name in self._forward_functions:
                del self._forward_functions[name]
                self.module.add_function(existing)
            return existing
        function = Function(fn_type, name, linkage)
        self.module.add_function(function)
        return function

    # -- symbol resolution used by operand parsing -------------------------------

    def resolve_global(self, name: str, expected_type: types.Type) -> Value:
        """Resolve ``%name`` at module scope, creating a forward symbol."""
        symbol = self.module.get_symbol(name)
        if symbol is None:
            symbol = self._forward_functions.get(name) or self._forward_globals.get(name)
        if symbol is not None:
            if symbol.type is not expected_type:
                raise self.error(
                    f"%{name} has type {symbol.type}, expected {expected_type}"
                )
            return symbol
        if expected_type.is_pointer and expected_type.pointee.is_function:
            function = Function(expected_type.pointee, name)  # type: ignore[arg-type]
            self._forward_functions[name] = function
            return function
        if expected_type.is_pointer:
            global_var = GlobalVariable(expected_type.pointee, name)
            self._forward_globals[name] = global_var
            return global_var
        raise self.error(f"unknown symbol %{name}")

    # -- constants ---------------------------------------------------------------

    def parse_typed_constant(self) -> Constant:
        ty = self.parse_type()
        return self.parse_constant_value(ty)

    def parse_constant_value(self, ty: types.Type) -> Constant:
        token = self.peek()
        if token.kind == "int":
            self.next()
            if ty.is_floating:
                return ConstantFP(ty, float(token.text))  # type: ignore[arg-type]
            return ConstantInt(ty, int(token.text))  # type: ignore[arg-type]
        if token.kind == "float":
            self.next()
            return ConstantFP(ty, float(token.text))  # type: ignore[arg-type]
        if token.kind == "word":
            if token.text in ("true", "false"):
                self.next()
                return ConstantBool(token.text == "true")
            if token.text == "null":
                self.next()
                return ConstantPointerNull(ty)  # type: ignore[arg-type]
            if token.text == "undef":
                self.next()
                return UndefValue(ty)
            if token.text == "zeroinitializer":
                self.next()
                return ConstantAggregateZero(ty)
            if token.text in ("nan", "inf"):
                self.next()
                return ConstantFP(ty, float(token.text))  # type: ignore[arg-type]
            if token.text == "cast":
                self.next()
                self.expect("(")
                source = self.parse_typed_constant()
                self.expect("word", "to")
                dest = self.parse_type()
                self.expect(")")
                if dest is not ty:
                    raise self.error("constant cast type mismatch")
                return ConstantExpr("cast", dest, (source,))
            if token.text == "getelementptr":
                self.next()
                self.expect("(")
                operands = [self.parse_typed_constant()]
                while self.accept(","):
                    operands.append(self.parse_typed_constant())
                self.expect(")")
                return ConstantExpr("getelementptr", ty, operands)
        if token.kind == "string":
            self.next()
            return ConstantString(token.text.encode("latin-1"))
        if token.kind == "[":
            self.next()
            elements: list[Constant] = []
            if not self.accept("]"):
                while True:
                    elements.append(self.parse_typed_constant())
                    if not self.accept(","):
                        break
                self.expect("]")
            return ConstantArray(ty, elements)  # type: ignore[arg-type]
        if token.kind == "{":
            self.next()
            fields: list[Constant] = []
            if not self.accept("}"):
                while True:
                    fields.append(self.parse_typed_constant())
                    if not self.accept(","):
                        break
                self.expect("}")
            return ConstantStruct(ty, fields)  # type: ignore[arg-type]
        if token.kind == "local":
            self.next()
            return self.resolve_global(token.text, ty)  # type: ignore[return-value]
        raise self.error(f"expected a constant, found {token.text!r}")


class _FunctionBodyParser:
    """Parses the blocks of one function, resolving local references."""

    def __init__(self, parser: Parser, function: Function):
        self.parser = parser
        self.function = function
        self.locals: dict[str, Value] = {arg.name: arg for arg in function.args}
        self.blocks: dict[str, BasicBlock] = {}
        self.forwards: list[_ForwardValue] = []

    # -- entry point ---------------------------------------------------------

    def parse(self) -> None:
        parser = self.parser
        current: Optional[BasicBlock] = None
        while True:
            token = parser.peek()
            if token.kind == "}":
                break
            if (token.kind in ("word", "local", "int")
                    and parser.peek(1).kind == ":"):
                current = self._define_block(token.text)
                parser.next()
                parser.next()
                continue
            if current is None:
                current = self._define_block("entry")
            self._parse_instruction(current)
        self._resolve_forwards()

    def _define_block(self, name: str) -> BasicBlock:
        block = self.blocks.get(name)
        if block is None:
            block = BasicBlock(name)
            self.blocks[name] = block
        elif block.parent is not None:
            raise self.parser.error(f"duplicate block label {name!r}")
        block.parent = self.function
        self.function.blocks.append(block)
        return block

    def _block_ref(self, name: str) -> BasicBlock:
        block = self.blocks.get(name)
        if block is None:
            block = BasicBlock(name)
            self.blocks[name] = block
        return block

    def _resolve_forwards(self) -> None:
        for forward in self.forwards:
            defined = self.locals.get(forward.ref_name)
            if defined is None:
                # Not a local after all: try module scope (e.g. a call to
                # a function defined later in the file).
                defined = self.parser.resolve_global(forward.ref_name, forward.type)
            if defined.type is not forward.type:
                raise self.parser.error(
                    f"%{forward.ref_name} has type {defined.type}, "
                    f"used as {forward.type}"
                )
            forward.replace_all_uses_with(defined)
        for name, block in self.blocks.items():
            if block.parent is None:
                raise self.parser.error(f"branch to undefined label {name!r}")

    # -- operands -------------------------------------------------------------

    def _value_ref(self, name: str, expected_type: types.Type) -> Value:
        local = self.locals.get(name)
        if local is not None:
            if local.type is not expected_type:
                raise self.parser.error(
                    f"%{name} has type {local.type}, expected {expected_type}"
                )
            return local
        symbol = self.parser.module.get_symbol(name)
        if (symbol is not None or name in self.parser._forward_functions
                or name in self.parser._forward_globals):
            return self.parser.resolve_global(name, expected_type)
        # Otherwise assume a local defined later in this function; if it
        # never appears, _resolve_forwards falls back to module scope.
        forward = _ForwardValue(expected_type, name)
        self.forwards.append(forward)
        return forward

    def _parse_value(self, expected_type: types.Type) -> Value:
        parser = self.parser
        token = parser.peek()
        if token.kind == "local":
            parser.next()
            return self._value_ref(token.text, expected_type)
        return parser.parse_constant_value(expected_type)

    def _parse_typed_value(self) -> Value:
        ty = self.parser.parse_type()
        return self._parse_value(ty)

    def _parse_label(self) -> BasicBlock:
        self.parser.expect("word", "label")
        name = self.parser.expect("local").text
        return self._block_ref(name)

    # -- instructions -------------------------------------------------------------

    def _define_local(self, name: str, value: Value) -> None:
        if name in self.locals:
            raise self.parser.error(f"redefinition of %{name}")
        value.name = name
        self.locals[name] = value

    def _parse_instruction(self, block: BasicBlock) -> None:
        parser = self.parser
        result_name: Optional[str] = None
        if parser.peek().kind == "local" and parser.peek(1).kind == "=":
            result_name = parser.next().text
            parser.next()
        opcode_token = parser.expect("word")
        opcode_text = opcode_token.text
        inst = self._dispatch(opcode_text, block)
        if parser.accept("bang", "loc"):
            inst.loc = int(parser.expect("int").text)
        block.append(inst)
        if result_name is not None:
            if inst.type.is_void:
                raise parser.error(f"{opcode_text} produces no value")
            self._define_local(result_name, inst)

    def _dispatch(self, opcode_text: str, block: BasicBlock):
        parser = self.parser
        if opcode_text in _BINARY_SPELLINGS:
            ty = parser.parse_type()
            lhs = self._parse_value(ty)
            parser.expect(",")
            rhs = self._parse_value(ty)
            return BinaryOperator(Opcode(opcode_text), lhs, rhs)
        if opcode_text in ("shl", "shr"):
            ty = parser.parse_type()
            value = self._parse_value(ty)
            parser.expect(",")
            parser.expect("word", "ubyte")
            amount = self._parse_value(types.UBYTE)
            return ShiftInst(Opcode(opcode_text), value, amount)
        if opcode_text == "ret":
            if parser.accept("word", "void"):
                return ReturnInst(None)
            return ReturnInst(self._parse_typed_value())
        if opcode_text == "br":
            if parser.peek().text == "label":
                return BranchInst(self._parse_label())
            parser.expect("word", "bool")
            cond = self._parse_value(types.BOOL)
            parser.expect(",")
            true_dest = self._parse_label()
            parser.expect(",")
            false_dest = self._parse_label()
            return BranchInst(true_dest, cond, false_dest)
        if opcode_text == "switch":
            value = self._parse_typed_value()
            parser.expect(",")
            default = self._parse_label()
            parser.expect("[")
            cases = []
            while not parser.accept("]"):
                case_ty = parser.parse_type()
                case_value = parser.parse_constant_value(case_ty)
                parser.expect(",")
                dest = self._parse_label()
                cases.append((case_value, dest))
            return SwitchInst(value, default, cases)
        if opcode_text in ("call", "invoke"):
            return self._parse_call(opcode_text)
        if opcode_text == "unwind":
            return UnwindInst()
        if opcode_text in ("malloc", "alloca"):
            allocated = parser.parse_type()
            size = None
            if parser.accept(","):
                parser.expect("word", "uint")
                size = self._parse_value(types.UINT)
            cls = MallocInst if opcode_text == "malloc" else AllocaInst
            return cls(allocated, size)
        if opcode_text == "free":
            return FreeInst(self._parse_typed_value())
        if opcode_text == "load":
            return LoadInst(self._parse_typed_value())
        if opcode_text == "store":
            value = self._parse_typed_value()
            parser.expect(",")
            ptr = self._parse_typed_value()
            return StoreInst(value, ptr)
        if opcode_text == "getelementptr":
            ptr = self._parse_typed_value()
            indices = []
            while parser.accept(","):
                indices.append(self._parse_typed_value())
            return GetElementPtrInst(ptr, indices)
        if opcode_text == "phi":
            ty = parser.parse_type()
            phi = PhiNode(ty)
            while True:
                parser.expect("[")
                value = self._parse_value(ty)
                parser.expect(",")
                pred_name = parser.expect("local").text
                parser.expect("]")
                phi.add_incoming(value, self._block_ref(pred_name))
                if not parser.accept(","):
                    break
            return phi
        if opcode_text == "cast":
            value = self._parse_typed_value()
            parser.expect("word", "to")
            dest = parser.parse_type()
            return CastInst(value, dest)
        if opcode_text == "vaarg":
            valist = self._parse_typed_value()
            parser.expect(",")
            result_type = parser.parse_type()
            return VAArgInst(valist, result_type)
        raise parser.error(f"unknown opcode {opcode_text!r}")

    def _parse_call(self, opcode_text: str):
        """``call <ty> <callee>(<args>)`` where <ty> is either the return
        type (direct, non-vararg calls) or the full function-pointer type."""
        parser = self.parser
        annotated = parser.parse_type()
        callee_name = parser.expect("local").text
        parser.expect("(")
        args: list[Value] = []
        while not parser.accept(")"):
            args.append(self._parse_typed_value())
            if parser.peek().kind != ")":
                parser.expect(",")
        if annotated.is_pointer and annotated.pointee.is_function:
            callee_type = annotated
        else:
            fn_type = types.function(annotated, [a.type for a in args])
            callee_type = types.pointer(fn_type)
        callee = self._value_ref(callee_name, callee_type)
        if opcode_text == "call":
            return CallInst(callee, args)
        parser.expect("word", "to")
        normal = self._parse_label()
        parser.expect("word", "unwind")
        parser.expect("word", "to")
        unwind = self._parse_label()
        return InvokeInst(callee, args, normal, unwind)


def parse_module(source: str, name: Optional[str] = None) -> Module:
    """Parse textual IR into a module.

    The module name is taken from the ``; ModuleID = '...'`` header
    comment when present, unless an explicit ``name`` is given.
    """
    if name is None:
        match = re.search(r";\s*ModuleID\s*=\s*'([^']*)'", source)
        name = match.group(1) if match else "parsed"
    return Parser(source, Module(name)).parse_module()


def parse_function(source: str, name: str = "parsed") -> Function:
    """Parse a single textual function definition; the text is its own
    module (``name``; a convenience for tests)."""
    module = parse_module(source, name)
    defined = [f for f in module.functions.values() if not f.is_declaration]
    if len(defined) != 1:
        raise ValueError(f"expected exactly one function, found {len(defined)}")
    return defined[0]

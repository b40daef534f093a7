"""Plain-text representation reader (paper section 2.5).

Parses the textual form produced by :mod:`repro.core.printer` back into
in-memory IR with no information loss.  Being able to convert between
the representations makes debugging transformations simpler and lets
test cases be written as text.

The parser is a hand-written lexer + recursive descent parser.  A
function body parses into a :class:`~repro.core.record.FunctionRecord`,
as the bytecode reader decodes one, and
:func:`~repro.core.record.rebuild_body` builds it: local operands and
labels are held by name until the closing ``}`` (so they may name
blocks and values defined later in the function), then numbered as the
record numbers them.  Calls and initializers may name functions and
globals defined later in the module through forward symbols.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from . import types
from .instructions import (
    BINARY_OPCODES, COMPARISON_OPCODES, TERMINATOR_OPCODES, Opcode,
    gep_result_type,
)
from .module import Function, GlobalVariable, Linkage, Module
from .record import FunctionRecord, rebuild_body
from .values import (
    Constant, ConstantAggregateZero, ConstantArray, ConstantBool,
    ConstantExpr, ConstantFP, ConstantInt, ConstantPointerNull,
    ConstantString, ConstantStruct, UndefValue, Value,
)


class ParseError(Exception):
    """Raised on malformed IR text, with the line of the token at fault."""

    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.line = line

    def __str__(self) -> str:
        return f"line {self.line}: {self.args[0]}"


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
                    if not re.fullmatch("[0-9A-Fa-f]{2}", hex_digits):
                        raise ParseError(f"bad escape \\{hex_digits}", line)
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
        """Only :class:`ParseError` escapes: any other error (a constant's
        or a type's constructor refusing its operands) is reported at
        the line of the last token read."""
        try:
            while self.peek().kind != "eof":
                token = self.peek()
                if token.kind == "word" and token.text == "declare":
                    self._parse_declare()
                elif token.kind == "local" and self.peek(1).kind == "=":
                    self._parse_named_item()
                elif token.kind in ("word", "local"):
                    # A local starts a function definition whose return
                    # type is a named struct (``%Node* %push(...)``).
                    self._parse_function_definition(linkage=Linkage.EXTERNAL)
                else:
                    raise self.error(
                        f"unexpected token {token.text!r} at module level")
        except ParseError:
            raise
        except Exception as error:
            raise ParseError(f"{type(error).__name__}: {error}",
                             self.tokens[max(self.position - 1, 0)].line) from error
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
        record = _FunctionBodyParser(self, function).parse()
        self.expect("}")
        try:
            rebuild_body(record, function)
        except Exception as error:
            raise ParseError(f"function %{name}: {type(error).__name__}: "
                             f"{error}", token.line) from error
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
            value = int(token.text)
            # A fit at the type's width under either signedness, as
            # LLVM 1.x's assembler accepted.
            if ty.is_integer and not -(1 << ty.bits - 1) <= value < 1 << ty.bits:
                raise ParseError(f"{value} does not fit {ty}", token.line)
            return ConstantInt(ty, value)  # type: ignore[arg-type]
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


class _Ref(NamedTuple):
    """A local operand held by name until the closing ``}``: a value of
    ``type``, or a block when ``type`` is ``label``; ``line`` is where
    it is written."""

    name: str
    type: types.Type
    line: int


class _FunctionBodyParser:
    """Parses the blocks of one function into a :class:`FunctionRecord`,
    one ``(opcode, carried, type, operands, name, loc)`` row per
    instruction, as the bytecode reader decodes one."""

    def __init__(self, parser: Parser, function: Function):
        self.parser = parser
        self.function = function
        #: name -> (index, type) of each argument and each named
        #: instruction; an instruction's index is the argument count
        #: plus its layout index.
        self.locals = {arg.name: (index, arg.type)
                       for index, arg in enumerate(function.args)}
        self.labels: dict[str, int] = {}
        self.blocks: list[tuple[str, list]] = []
        self.count = len(function.args)

    def parse(self) -> FunctionRecord:
        parser = self.parser
        while parser.peek().kind != "}":
            token = parser.peek()
            if (token.kind in ("word", "local", "int")
                    and parser.peek(1).kind == ":"):
                if token.text in self.labels:
                    raise parser.error(f"duplicate block label {token.text!r}")
                self.labels[token.text] = len(self.blocks)
                self.blocks.append((token.text, []))
                parser.next()
                parser.next()
                continue
            if not self.blocks:
                self.labels["entry"] = 0
                self.blocks.append(("entry", []))
            self._parse_instruction()
        # Number the locals as FunctionRecord does: arguments, blocks in
        # label order, then instructions in layout order.
        args = len(self.function.args)

        def resolve(op):
            if type(op) is not _Ref:
                return op
            if op.type is types.LABEL:
                if op.name not in self.labels:
                    raise ParseError(f"branch to undefined label {op.name!r}",
                                     op.line)
                return args + self.labels[op.name]
            if op.name not in self.locals:
                # Not a local after all: module scope (e.g. a call to a
                # function defined later in the file).
                return self._global(op)
            index, defined = self.locals[op.name]
            if defined is not op.type:
                raise ParseError(f"%{op.name} has type {defined}, "
                                 f"expected {op.type}", op.line)
            return index if index < args else index + len(self.blocks)

        return FunctionRecord(
            0, tuple(arg.name for arg in self.function.args),
            tuple((label, tuple(
                (opcode, carried, ty, tuple(map(resolve, operands)), name, loc)
                for opcode, carried, ty, operands, name, loc in rows))
                for label, rows in self.blocks))

    # -- operands -------------------------------------------------------------

    def _value_ref(self, token: Token, expected_type: types.Type):
        ref = _Ref(token.text, expected_type, token.line)
        parser = self.parser
        if ref.name not in self.locals and (
                parser.module.get_symbol(ref.name) is not None
                or ref.name in parser._forward_functions
                or ref.name in parser._forward_globals):
            return self._global(ref)
        # A local, or a name defined later in this function; if no local
        # defines it, parse() falls back to module scope.
        return ref

    def _global(self, ref: _Ref) -> Value:
        try:
            return self.parser.resolve_global(ref.name, ref.type)
        except ParseError as error:
            error.line = ref.line
            raise

    def _parse_value(self, expected_type: types.Type):
        parser = self.parser
        if parser.peek().kind == "local":
            return self._value_ref(parser.next(), expected_type)
        return parser.parse_constant_value(expected_type)

    def _parse_typed_value(self):
        ty = self.parser.parse_type()
        return self._parse_value(ty)

    def _block_ref(self) -> _Ref:
        token = self.parser.expect("local")
        return _Ref(token.text, types.LABEL, token.line)

    def _parse_label(self) -> _Ref:
        self.parser.expect("word", "label")
        return self._block_ref()

    # -- instructions -------------------------------------------------------------

    def _parse_instruction(self) -> None:
        parser = self.parser
        result: Optional[Token] = None
        if parser.peek().kind == "local" and parser.peek(1).kind == "=":
            result = parser.next()
            parser.next()
        opcode_token = parser.expect("word")
        label, rows = self.blocks[-1]
        if rows and rows[-1][0] in TERMINATOR_OPCODES:
            raise ParseError(f"block {label!r} is already terminated",
                             opcode_token.line)
        opcode, carried, operands = self._dispatch(opcode_token.text)
        ty = (types.pointer(carried)
              if opcode in (Opcode.MALLOC, Opcode.ALLOCA) else carried)
        loc = None
        if parser.accept("bang", "loc"):
            loc = int(parser.expect("int").text)
        name = ""
        if result is not None:
            if ty.is_void:
                raise ParseError(f"{opcode_token.text} produces no value",
                                 result.line)
            if result.text in self.locals:
                raise ParseError(f"redefinition of %{result.text}",
                                 result.line)
            name = result.text
            self.locals[name] = (self.count, ty)
        rows.append((opcode, carried, ty, operands, name, loc))
        self.count += 1

    def _dispatch(self, opcode_text: str) -> tuple[Opcode, types.Type, list]:
        """``(opcode, carried type, operands)`` of one instruction, as
        :func:`~repro.core.instructions.build` takes them: the carried
        type is the result type, but an allocation's allocated type."""
        parser = self.parser
        if opcode_text in _BINARY_SPELLINGS or opcode_text in ("shl", "shr"):
            opcode = Opcode(opcode_text)
            ty = parser.parse_type()
            lhs = self._parse_value(ty)
            parser.expect(",")
            if opcode in (Opcode.SHL, Opcode.SHR):
                parser.expect("word", "ubyte")
                rhs = self._parse_value(types.UBYTE)
            else:
                rhs = self._parse_value(ty)
            return (opcode, types.BOOL if opcode in COMPARISON_OPCODES else ty,
                    [lhs, rhs])
        if opcode_text == "ret":
            if parser.accept("word", "void"):
                return Opcode.RET, types.VOID, []
            return Opcode.RET, types.VOID, [self._parse_typed_value()]
        if opcode_text == "br":
            if parser.peek().text == "label":
                return Opcode.BR, types.VOID, [self._parse_label()]
            parser.expect("word", "bool")
            cond = self._parse_value(types.BOOL)
            parser.expect(",")
            true_dest = self._parse_label()
            parser.expect(",")
            return Opcode.BR, types.VOID, [cond, true_dest, self._parse_label()]
        if opcode_text == "switch":
            operands = [self._parse_typed_value()]
            parser.expect(",")
            operands.append(self._parse_label())
            parser.expect("[")
            while not parser.accept("]"):
                operands.append(parser.parse_typed_constant())
                parser.expect(",")
                operands.append(self._parse_label())
            return Opcode.SWITCH, types.VOID, operands
        if opcode_text in ("call", "invoke"):
            return self._parse_call(opcode_text)
        if opcode_text == "unwind":
            return Opcode.UNWIND, types.VOID, []
        if opcode_text in ("malloc", "alloca"):
            allocated = parser.parse_type()
            operands = []
            if parser.accept(","):
                parser.expect("word", "uint")
                operands.append(self._parse_value(types.UINT))
            return Opcode(opcode_text), allocated, operands
        if opcode_text == "free":
            return Opcode.FREE, types.VOID, [self._parse_typed_value()]
        if opcode_text == "load":
            ty = parser.parse_type()
            if not ty.is_pointer:
                raise parser.error(f"load requires a pointer, got {ty}")
            return Opcode.LOAD, ty.pointee, [self._parse_value(ty)]
        if opcode_text == "store":
            value = self._parse_typed_value()
            parser.expect(",")
            return Opcode.STORE, types.VOID, [value, self._parse_typed_value()]
        if opcode_text == "getelementptr":
            operands = [self._parse_typed_value()]
            while parser.accept(","):
                operands.append(self._parse_typed_value())
            return (Opcode.GETELEMENTPTR,
                    gep_result_type(operands[0].type, operands[1:]), operands)
        if opcode_text == "phi":
            ty = parser.parse_type()
            operands = []
            while True:
                parser.expect("[")
                operands.append(self._parse_value(ty))
                parser.expect(",")
                operands.append(self._block_ref())
                parser.expect("]")
                if not parser.accept(","):
                    break
            return Opcode.PHI, ty, operands
        if opcode_text == "cast":
            value = self._parse_typed_value()
            parser.expect("word", "to")
            return Opcode.CAST, parser.parse_type(), [value]
        if opcode_text == "vaarg":
            valist = self._parse_typed_value()
            parser.expect(",")
            return Opcode.VAARG, parser.parse_type(), [valist]
        raise parser.error(f"unknown opcode {opcode_text!r}")

    def _parse_call(self, opcode_text: str) -> tuple[Opcode, types.Type, list]:
        """``call <ty> <callee>(<args>)`` where <ty> is either the return
        type (direct, non-vararg calls) or the full function-pointer type."""
        parser = self.parser
        annotated = parser.parse_type()
        callee_token = parser.expect("local")
        parser.expect("(")
        args: list = []
        while not parser.accept(")"):
            args.append(self._parse_typed_value())
            if parser.peek().kind != ")":
                parser.expect(",")
        if annotated.is_pointer and annotated.pointee.is_function:
            callee_type = annotated
        else:
            fn_type = types.function(annotated, [a.type for a in args])
            callee_type = types.pointer(fn_type)
        operands = [self._value_ref(callee_token, callee_type), *args]
        if opcode_text == "invoke":
            parser.expect("word", "to")
            operands.append(self._parse_label())
            parser.expect("word", "unwind")
            parser.expect("word", "to")
            operands.append(self._parse_label())
        return Opcode(opcode_text), callee_type.pointee.return_type, operands


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

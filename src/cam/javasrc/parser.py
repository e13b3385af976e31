"""Recursive-descent parser for Java 8 class files.

Builds ClassModel/MethodModel structures with everything the metric layers
need: statement trees with cognitive nesting depths, per-method decision
token counts, accessed-field and invoked-method names, referenced type
names, and a file-level statement count.

Grammar coverage is Java 8: generics, lambdas, anonymous and local classes,
enums, annotation types, try-with-resources, multi-catch, method references.
Later syntax (records, sealed types, `var`, arrow switches) fails with
JavaSyntaxError, which is the pipeline's exclusion signal.
"""

from __future__ import annotations

from collections import Counter

from cam.javasrc.lexer import LexError, Token, tokenize
from cam.javasrc.model import (
    ClassModel,
    CompilationUnit,
    FieldModel,
    ImportDecl,
    MethodModel,
    Stmt,
)

MODIFIER_WORDS = frozenset(
    "public protected private abstract static final strictfp native "
    "synchronized transient volatile default".split()
)

PRIMITIVES = frozenset("boolean byte short int long char float double".split())

_GT_REMAINDERS = {">>": ">", ">>>": ">>", ">=": "=", ">>=": ">=", ">>>=": ">>="}

# Tokens that may open the operand of a reference-type cast; '+'/'-' must
# not, or '(a) - b' would parse as a cast.
_CAST_FOLLOW_LEXEMES = frozenset(["(", "!", "~", "this", "super", "new"]) | PRIMITIVES


class JavaSyntaxError(Exception):
    """Input is outside the accepted Java 8 grammar."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _MethodCtx:
    __slots__ = ("candidates", "invoked", "decisions", "scopes")

    def __init__(self) -> None:
        self.candidates: set[str] = set()
        self.invoked: set[str] = set()
        self.decisions: Counter = Counter()
        self.scopes: list[set[str]] = [set()]

    def in_scope(self, name: str) -> bool:
        return any(name in s for s in self.scopes)


class _ExprCollect:
    __slots__ = ("ops", "nodes")

    def __init__(self) -> None:
        self.ops: list[str] = []
        self.nodes: list[Stmt] = []


class _ClassCtx:
    __slots__ = ("model", "anon_seq", "pending_access")

    def __init__(self, model: ClassModel) -> None:
        self.model = model
        self.anon_seq = 0
        # (method, raw candidate names); filtered against the finished
        # field list when the class body closes.
        self.pending_access: list[tuple[MethodModel, set[str]]] = []


class _TypeInfo:
    __slots__ = ("erased", "names", "primitive")

    def __init__(self, erased: str, names: set[str], primitive: bool):
        self.erased = erased
        self.names = names
        self.primitive = primitive


class _Parser:
    def __init__(self, code_tokens: list[Token]):
        self.orig = code_tokens
        self.toks = list(code_tokens)
        self.i = 0
        self.ncss = 0
        self._classes: list[_ClassCtx] = []
        self._methods: list[_MethodCtx] = []
        self._collect: list[_ExprCollect] = []
        self._base_depth: list[int] = [0]
        self._depth = 0

    # ---- cursor helpers -------------------------------------------------

    def cur(self) -> Token:
        return self.toks[self.i]

    def peek(self, k: int = 1) -> Token:
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else self.toks[-1]

    def at(self, lexeme: str) -> bool:
        return self.toks[self.i].lexeme == lexeme and self.toks[self.i].kind != "eof"

    def at_ident(self) -> bool:
        return self.toks[self.i].kind == "identifier"

    def accept(self, lexeme: str) -> bool:
        if self.at(lexeme):
            self.i += 1
            return True
        return False

    def expect(self, lexeme: str) -> Token:
        t = self.toks[self.i]
        if t.lexeme != lexeme or t.kind == "eof":
            self.error(f"expected {lexeme!r}, found {t.lexeme!r}" if t.kind != "eof" else f"expected {lexeme!r}, found end of file")
        self.i += 1
        return t

    def expect_ident(self) -> str:
        t = self.toks[self.i]
        if t.kind != "identifier":
            self.error(f"expected identifier, found {t.lexeme!r}")
        self.i += 1
        return t.lexeme

    def error(self, message: str) -> None:
        t = self.toks[self.i]
        raise JavaSyntaxError(t.line, t.column, message)

    def expect_gt(self) -> None:
        """Consume one '>' even when the lexer glued several together."""
        t = self.toks[self.i]
        if t.lexeme == ">":
            self.i += 1
            return
        rem = _GT_REMAINDERS.get(t.lexeme)
        if rem is None:
            self.error(f"expected '>', found {t.lexeme!r}")
        self.toks[self.i] = Token("operator", rem, t.line, t.column + 1, "")

    # ---- expression side-effect plumbing --------------------------------

    def _mctx(self) -> _MethodCtx | None:
        return self._methods[-1] if self._methods else None

    def _record_access(self, name: str, via_this: bool) -> None:
        ctx = self._mctx()
        if ctx is None:
            return
        if via_this or not ctx.in_scope(name):
            ctx.candidates.add(name)

    def _record_invoke(self, name: str) -> None:
        ctx = self._mctx()
        if ctx is not None:
            ctx.invoked.add(name)

    def _record_decision(self, kind: str) -> None:
        ctx = self._mctx()
        if ctx is not None:
            ctx.decisions[kind] += 1

    def _record_refs(self, names: set[str]) -> None:
        if self._classes:
            self._classes[-1].model.referenced_type_names |= names

    def _push_scope(self) -> None:
        ctx = self._mctx()
        if ctx is not None:
            ctx.scopes.append(set())

    def _pop_scope(self) -> None:
        ctx = self._mctx()
        if ctx is not None:
            ctx.scopes.pop()

    def _declare_local(self, name: str) -> None:
        ctx = self._mctx()
        if ctx is not None:
            ctx.scopes[-1].add(name)

    def _log_op(self, op: str) -> None:
        if self._collect:
            self._collect[-1].ops.append(op)

    def _log_node(self, node: Stmt) -> None:
        if self._collect:
            self._collect[-1].nodes.append(node)

    def _parse_expr_group(self, depth: int) -> _ExprCollect:
        """Parse one full expression, gathering its logical-operator run and
        any ternary/lambda nodes it produced."""
        saved = self._depth
        self._depth = depth
        coll = _ExprCollect()
        self._collect.append(coll)
        try:
            self.parse_expression()
        finally:
            self._collect.pop()
            self._depth = saved
        return coll

    @staticmethod
    def _attach(node: Stmt, coll: _ExprCollect) -> None:
        if coll.ops:
            node.op_groups.append(coll.ops)
        node.children.extend(coll.nodes)

    # ---- compilation unit -----------------------------------------------

    def run(self, raw_tokens: list[Token]) -> CompilationUnit:
        package = None
        imports: list[ImportDecl] = []
        types: list[ClassModel] = []

        # Annotations at the very top may belong to a package declaration
        # or to the first type; only commit to the former when 'package'
        # actually follows them.
        saved = self.i
        self._skip_annotations()
        if self.at("package"):
            self.i += 1
            package = self._qualified_name()
            self.expect(";")
            self.ncss += 1
        else:
            self.i = saved
        while self.at("import"):
            self.i += 1
            static = self.accept("static")
            name = self._qualified_name()
            wildcard = False
            if self.accept("."):
                self.expect("*")
                wildcard = True
            self.expect(";")
            self.ncss += 1
            imports.append(ImportDecl(name, wildcard, static))
        while self.toks[self.i].kind != "eof":
            if self.accept(";"):
                continue
            types.append(self.parse_type_decl())
        return CompilationUnit(package, imports, types, self.ncss, raw_tokens)

    def _qualified_name(self) -> str:
        parts = [self.expect_ident()]
        while self.at(".") and self.peek().kind == "identifier":
            self.i += 1
            parts.append(self.expect_ident())
        return ".".join(parts)

    # ---- annotations and modifiers --------------------------------------

    def _skip_annotation(self) -> None:
        self.expect("@")
        self._qualified_name()
        if self.at("("):
            depth = 0
            while True:
                t = self.toks[self.i]
                if t.kind == "eof":
                    self.error("unterminated annotation arguments")
                if t.lexeme == "(":
                    depth += 1
                elif t.lexeme == ")":
                    depth -= 1
                self.i += 1
                if depth == 0:
                    break

    def _skip_annotations(self) -> int:
        count = 0
        while self.at("@") and self.peek().lexeme != "interface":
            self._skip_annotation()
            count += 1
        return count

    def parse_modifiers(self) -> tuple[set[str], int]:
        mods: set[str] = set()
        anns = 0
        while True:
            if self.at("@") and self.peek().lexeme != "interface":
                self._skip_annotation()
                anns += 1
                continue
            t = self.toks[self.i]
            if t.kind == "keyword" and t.lexeme in MODIFIER_WORDS:
                mods.add(t.lexeme)
                self.i += 1
                continue
            return mods, anns

    # ---- types ----------------------------------------------------------

    def parse_type(self, allow_void: bool = False) -> _TypeInfo:
        while self.at("@") and self.peek().lexeme != "interface":
            self._skip_annotation()
        t = self.toks[self.i]
        names: set[str] = set()
        if t.kind == "keyword" and (t.lexeme in PRIMITIVES or (allow_void and t.lexeme == "void")):
            erased = t.lexeme
            primitive = True
            self.i += 1
        elif t.kind == "identifier":
            parts = [t.lexeme]
            self.i += 1
            self._maybe_type_args(names)
            while self.at(".") and self.peek().kind == "identifier":
                self.i += 1
                parts.append(self.expect_ident())
                self._maybe_type_args(names)
            erased = ".".join(parts)
            if erased == "var":
                self.error("'var' is not a Java 8 type")
            names.add(erased)
            primitive = False
        else:
            self.error(f"expected a type, found {t.lexeme!r}")
        dims = 0
        while True:
            while self.at("@") and self.peek().lexeme != "interface":
                self._skip_annotation()
            if self.at("[") and self.peek().lexeme == "]":
                self.i += 2
                dims += 1
            else:
                break
        return _TypeInfo(erased + "[]" * dims, names, primitive and dims == 0)

    def _maybe_type_args(self, names: set[str]) -> None:
        if not self.at("<"):
            return
        self.i += 1
        if self.at(">") or self.toks[self.i].lexeme in _GT_REMAINDERS:
            self.expect_gt()  # diamond
            return
        while True:
            while self.at("@") and self.peek().lexeme != "interface":
                self._skip_annotation()
            if self.accept("?"):
                if self.at("extends") or self.at("super"):
                    self.i += 1
                    inner = self.parse_type()
                    names |= inner.names
            else:
                inner = self.parse_type()
                names |= inner.names
                while self.accept("&"):
                    inner = self.parse_type()
                    names |= inner.names
            if self.accept(","):
                continue
            self.expect_gt()
            return

    def try_parse_type(self, allow_void: bool = False) -> _TypeInfo | None:
        saved_i = self.i
        try:
            return self.parse_type(allow_void)
        except JavaSyntaxError:
            self.i = saved_i
            return None

    def _skip_type_params(self) -> None:
        self.expect("<")
        depth = 1
        while depth > 0:
            t = self.toks[self.i]
            if t.kind == "eof" or t.lexeme in ("{", "}", ";"):
                self.error("unterminated type parameter list")
            if t.lexeme == "<":
                depth += 1
            elif set(t.lexeme) == {">"}:
                depth -= len(t.lexeme)
                if depth < 0:
                    self.error("unbalanced type parameter list")
            self.i += 1

    # ---- type declarations ----------------------------------------------

    def parse_type_decl(self, mods: set[str] | None = None, anns: int | None = None, start: int | None = None) -> ClassModel:
        if mods is None:
            start = self.i
            mods, anns = self.parse_modifiers()
        assert anns is not None and start is not None
        t = self.toks[self.i]
        if t.lexeme == "class":
            self.i += 1
            return self._class_decl("class", mods, anns, start)
        if t.lexeme == "interface":
            self.i += 1
            return self._class_decl("interface", mods, anns, start)
        if t.lexeme == "enum":
            self.i += 1
            return self._enum_decl(mods, anns, start)
        if t.lexeme == "@" and self.peek().lexeme == "interface":
            self.i += 2
            return self._class_decl("annotation", mods, anns, start)
        self.error(f"expected a type declaration, found {t.lexeme!r}")
        raise AssertionError

    def _new_class(self, name: str, kind: str, mods: set[str], anns: int) -> ClassModel:
        return ClassModel(name=name, kind=kind, modifiers=mods, annotation_count=anns)

    def _class_decl(self, kind: str, mods: set[str], anns: int, start: int) -> ClassModel:
        name = self.expect_ident()
        self.ncss += 1
        model = self._new_class(name, kind, mods, anns)
        if self.at("<"):
            self._skip_type_params()
        if kind == "class":
            if self.accept("extends"):
                sup = self.parse_type()
                model.extends_name = sup.erased.rstrip("[]")
            if self.accept("implements"):
                model.implements_names = self._type_name_list()
        elif kind == "interface":
            if self.accept("extends"):
                model.implements_names = self._type_name_list()
        self.parse_class_body(model)
        model.tokens = self.orig[start : self.i]
        return model

    def _enum_decl(self, mods: set[str], anns: int, start: int) -> ClassModel:
        name = self.expect_ident()
        self.ncss += 1
        model = self._new_class(name, "enum", mods, anns)
        if self.accept("implements"):
            model.implements_names = self._type_name_list()
        ctx = _ClassCtx(model)
        self._classes.append(ctx)
        try:
            self.expect("{")
            if not self.at(";") and not self.at("}"):
                while True:
                    self._skip_annotations()
                    if self.at("}") or self.at(";"):
                        break
                    self.expect_ident()
                    if self.at("("):
                        self._throwaway_args()
                    if self.at("{"):
                        self._anonymous_body(base_depth=0)
                    if not self.accept(","):
                        break
            if self.accept(";"):
                while not self.at("}"):
                    self._parse_member(ctx)
            self.expect("}")
        finally:
            self._classes.pop()
        self._resolve_access(ctx)
        model.tokens = self.orig[start : self.i]
        return model

    def _type_name_list(self) -> list[str]:
        names = []
        while True:
            t = self.parse_type()
            names.append(t.erased.rstrip("[]"))
            if not self.accept(","):
                return names

    def parse_class_body(self, model: ClassModel) -> None:
        ctx = _ClassCtx(model)
        self._classes.append(ctx)
        try:
            self.expect("{")
            while not self.at("}"):
                self._parse_member(ctx)
            self.expect("}")
        finally:
            self._classes.pop()
        self._resolve_access(ctx)

    def _resolve_access(self, ctx: _ClassCtx) -> None:
        field_names = {f.name for f in ctx.model.fields}
        for method, candidates in ctx.pending_access:
            method.accessed_field_names = candidates & field_names

    def _parse_member(self, ctx: _ClassCtx) -> None:
        if self.accept(";"):
            return
        if self.at("{"):
            self._initializer_block()
            return
        if self.at("static") and self.peek().lexeme == "{":
            self.i += 1
            self._initializer_block()
            return

        start = self.i
        mods, anns = self.parse_modifiers()
        t = self.toks[self.i]
        if t.lexeme in ("class", "interface", "enum") or (t.lexeme == "@" and self.peek().lexeme == "interface"):
            ctx.model.nested.append(self.parse_type_decl(mods, anns, start))
            return
        if self.at("<"):
            self._skip_type_params()
        if self.at_ident() and self.cur().lexeme == ctx.model.name and self.peek().lexeme == "(":
            self._method_decl(ctx, mods, None, constructor=True)
            return
        rtype = self.parse_type(allow_void=True)
        if self.at_ident() and self.peek().lexeme == "(":
            self._record_refs(rtype.names)
            self._method_decl(ctx, mods, rtype, constructor=False)
            return
        if not self.at_ident():
            self.error(f"expected a member declaration, found {self.cur().lexeme!r}")
        self._field_decl(ctx, mods, rtype)

    def _initializer_block(self) -> None:
        self._methods.append(_MethodCtx())
        try:
            self.parse_block(self._base_depth[-1])
        finally:
            self._methods.pop()

    def _field_decl(self, ctx: _ClassCtx, mods: set[str], ftype: _TypeInfo) -> None:
        self._record_refs(ftype.names)
        implicit_static = ctx.model.kind in ("interface", "annotation")
        is_static = "static" in mods or implicit_static
        while True:
            name = self.expect_ident()
            dims = 0
            while self.at("[") and self.peek().lexeme == "]":
                self.i += 2
                dims += 1
            ctx.model.fields.append(FieldModel(name, ftype.erased + "[]" * dims, is_static))
            if self.accept("="):
                self._methods.append(_MethodCtx())
                try:
                    self._parse_variable_init()
                finally:
                    self._methods.pop()
            if not self.accept(","):
                break
        self.expect(";")
        self.ncss += 1

    def _visibility(self, mods: set[str], ctx: _ClassCtx) -> str:
        if "public" in mods:
            return "public"
        if "protected" in mods:
            return "protected"
        if "private" in mods:
            return "private"
        if ctx.model.kind in ("interface", "annotation"):
            return "public"
        return "package"

    def _method_decl(self, ctx: _ClassCtx, mods: set[str], rtype: _TypeInfo | None, constructor: bool) -> None:
        name = self.expect_ident()
        self.ncss += 1
        mctx = _MethodCtx()
        self._methods.append(mctx)
        try:
            params = self._parse_params()
            while self.at("[") and self.peek().lexeme == "]":
                self.i += 2
            if self.accept("throws"):
                while True:
                    self.parse_type()
                    if not self.accept(","):
                        break
            if self.at("default"):  # annotation member default value
                self.i += 1
                self._parse_element_value()
            body = None
            body_tokens: list[Token] = []
            if self.at("{"):
                body_start = self.i
                body = self.parse_block(self._base_depth[-1])
                body_tokens = self.orig[body_start : self.i]
            else:
                self.expect(";")
        finally:
            self._methods.pop()
        method = MethodModel(
            name=name,
            is_constructor=constructor,
            is_static="static" in mods,
            visibility=self._visibility(mods, ctx),
            parameter_type_names=params,
            body=body,
            invoked_method_names=mctx.invoked,
            decision_tokens=dict(mctx.decisions),
            body_tokens=body_tokens,
        )
        ctx.model.methods.append(method)
        ctx.pending_access.append((method, mctx.candidates))

    def _parse_params(self) -> list[str]:
        self.expect("(")
        params: list[str] = []
        if self.accept(")"):
            return params
        while True:
            self.parse_modifiers()  # 'final' and annotations
            ptype = self.parse_type()
            varargs = self.accept("...")
            if self.at("this"):
                self.i += 1  # receiver parameter, not a real one
            else:
                if self.at_ident() and self.peek().lexeme == "." and self.peek(2).lexeme == "this":
                    self.i += 3  # qualified receiver
                else:
                    pname = self.expect_ident()
                    dims = 0
                    while self.at("[") and self.peek().lexeme == "]":
                        self.i += 2
                        dims += 1
                    erased = ptype.erased + "[]" * dims + ("[]" if varargs else "")
                    params.append(erased)
                    self._record_refs(ptype.names)
                    self._declare_local(pname)
            if self.accept(","):
                continue
            self.expect(")")
            return params

    def _parse_element_value(self) -> None:
        if self.at("@"):
            self._skip_annotation()
            return
        if self.at("{"):
            self.i += 1
            while not self.at("}"):
                self._parse_element_value()
                if not self.accept(","):
                    break
            self.expect("}")
            return
        coll = _ExprCollect()
        self._collect.append(coll)
        try:
            self.parse_ternary()
        finally:
            self._collect.pop()

    # ---- statements ------------------------------------------------------

    def parse_block(self, depth: int) -> Stmt:
        node = Stmt("block", depth)
        self.expect("{")
        self._push_scope()
        try:
            while not self.at("}"):
                node.children.append(self.parse_statement(depth))
            self.expect("}")
        finally:
            self._pop_scope()
        return node

    def parse_statement(self, d: int) -> Stmt:
        t = self.toks[self.i]
        lex = t.lexeme
        if t.kind == "eof":
            self.error("unexpected end of file in statement")
        if lex == "{":
            return self.parse_block(d)
        if lex == ";":
            self.i += 1
            self.ncss += 1
            return Stmt("statement", d)
        if lex == "if":
            return self._if_stmt(d, chained=False)
        if lex == "for":
            return self._for_stmt(d)
        if lex == "while":
            return self._while_stmt(d)
        if lex == "do":
            return self._do_stmt(d)
        if lex == "switch":
            return self._switch_stmt(d)
        if lex == "try":
            return self._try_stmt(d)
        if lex == "return":
            self.i += 1
            node = Stmt("statement", d)
            if not self.at(";"):
                self._attach(node, self._parse_expr_group(d))
            self.expect(";")
            self.ncss += 1
            return node
        if lex == "throw":
            self.i += 1
            node = Stmt("statement", d)
            self._attach(node, self._parse_expr_group(d))
            self.expect(";")
            self.ncss += 1
            return node
        if lex == "break" or lex == "continue":
            self.i += 1
            labeled = self.at_ident()
            if labeled:
                self.i += 1
            self.expect(";")
            self.ncss += 1
            return Stmt("labeled-jump" if labeled else lex, d)
        if lex == "assert":
            self.i += 1
            node = Stmt("statement", d)
            self._attach(node, self._parse_expr_group(d))
            if self.accept(":"):
                self._attach(node, self._parse_expr_group(d))
            self.expect(";")
            self.ncss += 1
            return node
        if lex == "synchronized":
            self.i += 1
            node = Stmt("statement", d)
            self.expect("(")
            self._attach(node, self._parse_expr_group(d))
            self.expect(")")
            node.children.append(self.parse_block(d))
            return node
        if lex in ("class", "interface", "enum", "abstract", "final", "static", "strictfp") or (
            lex == "@" and self.peek().lexeme == "interface"
        ):
            saved = self.i
            mods, anns = self.parse_modifiers()
            if self.at("class") or self.at("interface") or self.at("enum") or (self.at("@") and self.peek().lexeme == "interface"):
                self._base_depth.append(d + 1)
                try:
                    local = self.parse_type_decl(mods, anns, saved)
                finally:
                    self._base_depth.pop()
                if self._classes:
                    self._classes[-1].model.nested.append(local)
                return Stmt("statement", d)
            # 'final' (or annotations) opening a local variable declaration
            self.i = saved
            return self._local_decl_or_expr(d, force_decl=True)
        if t.kind == "identifier" and self.peek().lexeme == ":":
            self.i += 2
            return self.parse_statement(d)
        return self._local_decl_or_expr(d, force_decl=False)

    def _local_decl_or_expr(self, d: int, force_decl: bool) -> Stmt:
        saved = self.i
        if force_decl:
            self.parse_modifiers()
        dtype = self.try_parse_type()
        if dtype is not None and self.at_ident():
            node = Stmt("statement", d)
            while True:
                name = self.expect_ident()
                self._declare_local(name)
                while self.at("[") and self.peek().lexeme == "]":
                    self.i += 2
                if self.accept("="):
                    self._attach(node, self._group_variable_init(d))
                if not self.accept(","):
                    break
            self.expect(";")
            self.ncss += 1
            return node
        if force_decl:
            self.error("expected a declaration")
        self.i = saved
        node = Stmt("statement", d)
        self._attach(node, self._parse_expr_group(d))
        self.expect(";")
        self.ncss += 1
        return node

    def _group_variable_init(self, d: int) -> _ExprCollect:
        saved = self._depth
        self._depth = d
        coll = _ExprCollect()
        self._collect.append(coll)
        try:
            self._parse_variable_init()
        finally:
            self._collect.pop()
            self._depth = saved
        return coll

    def _parse_variable_init(self) -> None:
        if self.at("{"):
            self.i += 1
            while not self.at("}"):
                self._parse_variable_init()
                if not self.accept(","):
                    break
            self.expect("}")
            return
        self.parse_expression()

    def _if_stmt(self, d: int, chained: bool) -> Stmt:
        self.expect("if")
        self.ncss += 1
        self._record_decision("if")
        node = Stmt("if", d, chained=chained)
        self.expect("(")
        self._attach(node, self._parse_expr_group(d))
        self.expect(")")
        node.children.append(self.parse_statement(d + 1))
        if self.accept("else"):
            self.ncss += 1
            if self.at("if"):
                node.else_children = [self._if_stmt(d, chained=True)]
            else:
                node.else_children = [self.parse_statement(d + 1)]
        return node

    def _for_stmt(self, d: int) -> Stmt:
        self.expect("for")
        self.ncss += 1
        self.expect("(")
        self._push_scope()
        try:
            foreach = self._try_foreach_header()
            if foreach is not None:
                self._record_decision("foreach")
                node = Stmt("foreach", d)
                self._attach(node, self._parse_expr_group(d))
                self.expect(")")
            else:
                self._record_decision("for")
                node = Stmt("for", d)
                if not self.at(";"):
                    self._for_init(node, d)
                self.expect(";")
                if not self.at(";"):
                    self._attach(node, self._parse_expr_group(d))
                self.expect(";")
                if not self.at(")"):
                    while True:
                        self._attach(node, self._parse_expr_group(d))
                        if not self.accept(","):
                            break
                self.expect(")")
            node.children.append(self.parse_statement(d + 1))
        finally:
            self._pop_scope()
        return node

    def _try_foreach_header(self) -> bool | None:
        saved = self.i
        self.parse_modifiers()
        vtype = self.try_parse_type()
        if vtype is not None and self.at_ident():
            name_tok = self.cur()
            nxt = self.peek().lexeme
            if nxt == ":" and self.peek(2).lexeme != ":":
                self.i += 1
                self.expect(":")
                self._declare_local(name_tok.lexeme)
                return True
        self.i = saved
        return None

    def _for_init(self, node: Stmt, d: int) -> None:
        saved = self.i
        self.parse_modifiers()
        dtype = self.try_parse_type()
        if dtype is not None and self.at_ident():
            while True:
                name = self.expect_ident()
                self._declare_local(name)
                while self.at("[") and self.peek().lexeme == "]":
                    self.i += 2
                if self.accept("="):
                    self._attach(node, self._group_variable_init(d))
                if not self.accept(","):
                    return
        else:
            self.i = saved
            while True:
                self._attach(node, self._parse_expr_group(d))
                if not self.accept(","):
                    return

    def _while_stmt(self, d: int) -> Stmt:
        self.expect("while")
        self.ncss += 1
        self._record_decision("while")
        node = Stmt("while", d)
        self.expect("(")
        self._attach(node, self._parse_expr_group(d))
        self.expect(")")
        node.children.append(self.parse_statement(d + 1))
        return node

    def _do_stmt(self, d: int) -> Stmt:
        self.expect("do")
        self.ncss += 1
        self._record_decision("do")
        node = Stmt("do", d)
        node.children.append(self.parse_statement(d + 1))
        self.expect("while")
        self.expect("(")
        self._attach(node, self._parse_expr_group(d))
        self.expect(")")
        self.expect(";")
        return node

    def _switch_stmt(self, d: int) -> Stmt:
        self.expect("switch")
        self.ncss += 1
        node = Stmt("switch", d)
        self.expect("(")
        self._attach(node, self._parse_expr_group(d))
        self.expect(")")
        self.expect("{")
        current: Stmt | None = None
        while not self.at("}"):
            if self.at("case"):
                self.i += 1
                self.ncss += 1
                self._record_decision("case")
                coll = _ExprCollect()
                self._collect.append(coll)
                try:
                    self.parse_ternary()
                finally:
                    self._collect.pop()
                current = Stmt("case-label", d + 1)
                self._attach(current, coll)
                node.children.append(current)
                self.expect(":")
                continue
            if self.at("default"):
                self.i += 1
                current = Stmt("case-label", d + 1)
                node.children.append(current)
                self.expect(":")
                continue
            if current is None:
                self.error("statement outside any switch label")
            current.children.append(self.parse_statement(d + 1))
        self.expect("}")
        return node

    def _try_stmt(self, d: int) -> Stmt:
        self.expect("try")
        self.ncss += 1
        node = Stmt("try", d)
        self._push_scope()
        try:
            if self.at("("):
                self.i += 1
                while True:
                    self.parse_modifiers()
                    self.parse_type()
                    rname = self.expect_ident()
                    self._declare_local(rname)
                    self.expect("=")
                    self._attach(node, self._parse_expr_group(d))
                    if self.accept(";"):
                        if self.at(")"):
                            break
                        continue
                    break
                self.expect(")")
            node.children.append(self.parse_block(d))
        finally:
            self._pop_scope()
        while self.at("catch"):
            self.i += 1
            self.ncss += 1
            self._record_decision("catch")
            catch = Stmt("catch", d)
            self.expect("(")
            self._push_scope()
            try:
                self.parse_modifiers()
                ctype = self.parse_type()
                self._record_refs(ctype.names)
                while self.accept("|"):
                    ctype = self.parse_type()
                    self._record_refs(ctype.names)
                cname = self.expect_ident()
                self._declare_local(cname)
                self.expect(")")
                catch.children.append(self.parse_block(d + 1))
            finally:
                self._pop_scope()
            node.children.append(catch)
        if self.accept("finally"):
            self.ncss += 1
            node.children.append(self.parse_block(d))
        return node

    # ---- expressions -----------------------------------------------------

    def parse_expression(self) -> None:
        if self._try_lambda():
            return
        self.parse_assignment()

    def _try_lambda(self) -> bool:
        t = self.toks[self.i]
        if t.kind == "identifier" and self.peek().lexeme == "->":
            name = t.lexeme
            self.i += 2
            self._lambda_body([name])
            return True
        if t.lexeme == "(":
            end = self._matching_paren(self.i)
            if end is not None and self.toks[end + 1].lexeme == "->" and self.toks[end + 1].kind != "eof":
                self._lambda_params_and_body()
                return True
        return False

    def _matching_paren(self, start: int) -> int | None:
        depth = 0
        j = start
        while j < len(self.toks):
            lex = self.toks[j].lexeme
            kind = self.toks[j].kind
            if kind == "eof":
                return None
            if lex == "(":
                depth += 1
            elif lex == ")":
                depth -= 1
                if depth == 0:
                    return j
            j += 1
        return None

    def _lambda_params_and_body(self) -> None:
        self.expect("(")
        names: list[str] = []
        if not self.at(")"):
            if self.at_ident() and self.peek().lexeme in (",", ")"):
                while True:
                    names.append(self.expect_ident())
                    if not self.accept(","):
                        break
            else:
                while True:
                    self.parse_modifiers()
                    self.parse_type()
                    names.append(self.expect_ident())
                    while self.at("[") and self.peek().lexeme == "]":
                        self.i += 2
                    if not self.accept(","):
                        break
        self.expect(")")
        self.expect("->")
        self._lambda_body(names)

    def _lambda_body(self, param_names: list[str]) -> None:
        node = Stmt("lambda-body", self._depth)
        self._log_node(node)
        self._push_scope()
        for name in param_names:
            self._declare_local(name)
        saved = self._depth
        self._depth += 1
        try:
            if self.at("{"):
                body = self.parse_block(self._depth)
                node.children.extend(body.children)
            else:
                coll = _ExprCollect()
                self._collect.append(coll)
                try:
                    self.parse_expression()
                finally:
                    self._collect.pop()
                self._attach(node, coll)
        finally:
            self._depth = saved
            self._pop_scope()

    def parse_assignment(self) -> None:
        self.parse_ternary()
        t = self.toks[self.i]
        if t.kind == "operator" and t.lexeme in ("=", "+=", "-=", "*=", "/=", "&=", "|=", "^=", "%=", "<<=", ">>=", ">>>="):
            self.i += 1
            self.parse_expression()

    def parse_ternary(self) -> None:
        self._parse_or()
        if self.at("?"):
            self.i += 1
            self._record_decision("ternary")
            self._log_node(Stmt("conditional-expr", self._depth))
            self.parse_expression()
            self.expect(":")
            if not self._try_lambda():
                self.parse_ternary()
                t = self.toks[self.i]
                if t.kind == "operator" and t.lexeme in ("=", "+=", "-=", "*=", "/=", "&=", "|=", "^=", "%=", "<<=", ">>=", ">>>="):
                    self.i += 1
                    self.parse_expression()

    def _parse_or(self) -> None:
        self._parse_and()
        while self.at("||"):
            self.i += 1
            self._record_decision("or")
            self._log_op("||")
            self._parse_and()

    def _parse_and(self) -> None:
        self._parse_bitor()
        while self.at("&&"):
            self.i += 1
            self._record_decision("and")
            self._log_op("&&")
            self._parse_bitor()

    def _parse_bitor(self) -> None:
        self._parse_bitxor()
        while self.at("|"):
            self.i += 1
            self._parse_bitxor()

    def _parse_bitxor(self) -> None:
        self._parse_bitand()
        while self.at("^"):
            self.i += 1
            self._parse_bitand()

    def _parse_bitand(self) -> None:
        self._parse_equality()
        while self.at("&"):
            self.i += 1
            self._parse_equality()

    def _parse_equality(self) -> None:
        self._parse_relational()
        while self.at("==") or self.at("!="):
            self.i += 1
            self._parse_relational()

    def _parse_relational(self) -> None:
        self._parse_shift()
        while True:
            t = self.toks[self.i]
            if t.kind == "operator" and t.lexeme in ("<", ">", "<=", ">="):
                self.i += 1
                self._parse_shift()
            elif t.lexeme == "instanceof" and t.kind == "keyword":
                self.i += 1
                self.parse_type()
            else:
                return

    def _parse_shift(self) -> None:
        self._parse_additive()
        while self.toks[self.i].lexeme in ("<<", ">>", ">>>") and self.toks[self.i].kind == "operator":
            self.i += 1
            self._parse_additive()

    def _parse_additive(self) -> None:
        self._parse_multiplicative()
        while self.toks[self.i].lexeme in ("+", "-") and self.toks[self.i].kind == "operator":
            self.i += 1
            self._parse_multiplicative()

    def _parse_multiplicative(self) -> None:
        self.parse_unary()
        while self.toks[self.i].lexeme in ("*", "/", "%") and self.toks[self.i].kind == "operator":
            self.i += 1
            self.parse_unary()

    def parse_unary(self) -> None:
        t = self.toks[self.i]
        if t.kind == "operator" and t.lexeme in ("+", "-", "++", "--", "!", "~"):
            self.i += 1
            self.parse_unary()
            return
        if t.lexeme == "(" and self._try_cast():
            return
        self._parse_postfix()

    def _try_cast(self) -> bool:
        saved = self.i
        self.i += 1
        ctype = self.try_parse_type()
        if ctype is not None:
            while self.at("&"):
                self.i += 1
                extra = self.try_parse_type()
                if extra is None:
                    self.i = saved
                    return False
            if self.at(")"):
                nxt = self.peek()
                ok = (
                    ctype.primitive
                    and (nxt.kind in ("identifier", "literal-int", "literal-float", "literal-string", "literal-char") or nxt.lexeme in _CAST_FOLLOW_LEXEMES or (nxt.kind == "operator" and nxt.lexeme in ("+", "-", "++", "--", "!", "~")))
                ) or (
                    not ctype.primitive
                    and (nxt.kind in ("identifier", "literal-int", "literal-float", "literal-string", "literal-char") or nxt.lexeme in _CAST_FOLLOW_LEXEMES)
                )
                if ok:
                    self.i += 1  # the ')'
                    if not self._try_lambda():
                        self.parse_unary()
                    return True
        self.i = saved
        return False

    def _parse_postfix(self) -> None:
        bare_this = self._parse_primary()
        while True:
            t = self.toks[self.i]
            lex = t.lexeme
            if lex == "." and t.kind == "separator":
                nxt = self.peek()
                if nxt.lexeme == "new":
                    self.i += 2
                    self._parse_creator()
                    bare_this = False
                    continue
                if nxt.lexeme == "this":
                    self.i += 2
                    bare_this = False
                    continue
                if nxt.lexeme == "super":
                    self.i += 2
                    self.expect(".")
                    name = self.expect_ident()
                    if self.at("("):
                        self._record_invoke(name)
                        self._parse_args()
                    bare_this = False
                    continue
                if nxt.lexeme == "class":
                    self.i += 2
                    bare_this = False
                    continue
                if nxt.lexeme == "<":
                    self.i += 2
                    self._committed_type_args()
                    name = self.expect_ident()
                    self._record_invoke(name)
                    self._parse_args()
                    bare_this = False
                    continue
                self.i += 1
                name = self.expect_ident()
                if self.at("("):
                    self._record_invoke(name)
                    self._parse_args()
                elif bare_this:
                    self._record_access(name, via_this=True)
                bare_this = False
                continue
            if lex == "[" and t.kind == "separator":
                if self.peek().lexeme == "]":
                    # an array type mention: String[]::new or String[].class
                    while self.at("[") and self.peek().lexeme == "]":
                        self.i += 2
                    if self.at("::"):
                        self.i += 1
                        self.expect("new")
                    else:
                        self.expect(".")
                        self.expect("class")
                    bare_this = False
                    continue
                self.i += 1
                self.parse_expression()
                self.expect("]")
                bare_this = False
                continue
            if lex in ("++", "--") and t.kind == "operator":
                self.i += 1
                bare_this = False
                continue
            if lex == "::" and t.kind == "separator":
                self.i += 1
                if self.at("<"):
                    self._committed_type_args()
                if self.at("new"):
                    self.i += 1
                else:
                    self.expect_ident()
                bare_this = False
                continue
            return

    def _committed_type_args(self) -> None:
        """Parse type arguments when context has already committed to them.

        Entered with the cursor just past '<'."""
        names: set[str] = set()
        if self.at(">") or self.toks[self.i].lexeme in _GT_REMAINDERS:
            self.expect_gt()
            return
        while True:
            if self.accept("?"):
                if self.at("extends") or self.at("super"):
                    self.i += 1
                    self.parse_type()
            else:
                self.parse_type()
            if self.accept(","):
                continue
            self.expect_gt()
            return

    def _scan_type_args(self, start: int) -> int | None:
        """Lookahead from a '<' at *start*; index just past the closing '>'
        run, or None when this cannot be a type-argument list."""
        depth = 0
        j = start
        while j < len(self.toks):
            t = self.toks[j]
            lex = t.lexeme
            if t.kind == "eof":
                return None
            if lex == "<":
                depth += 1
            elif lex and set(lex) == {">"}:
                depth -= len(lex)
                if depth < 0:
                    return None
                if depth == 0:
                    return j + 1
            elif t.kind == "identifier" or lex in (",", ".", "?", "[", "]", "@", "&", "extends", "super") or lex in PRIMITIVES:
                pass
            else:
                return None
            j += 1
        return None

    def _parse_primary(self) -> bool:
        """Parse a primary expression; True when it was a bare `this`."""
        t = self.toks[self.i]
        kind = t.kind
        lex = t.lexeme

        if kind in ("literal-int", "literal-float", "literal-string", "literal-char"):
            self.i += 1
            return False
        if kind == "keyword":
            if lex in ("true", "false", "null"):
                self.i += 1
                return False
            if lex == "this":
                self.i += 1
                if self.at("("):
                    self._parse_args()  # constructor delegation
                    return False
                return True
            if lex == "super":
                self.i += 1
                if self.at("("):
                    self._parse_args()
                    return False
                return False
            if lex == "new":
                self.i += 1
                self._parse_creator()
                return False
            if lex in PRIMITIVES or lex == "void":
                # int.class, int[].class, double[][]::new
                self.i += 1
                while self.at("[") and self.peek().lexeme == "]":
                    self.i += 2
                if self.at("::"):
                    self.i += 1
                    self.expect("new")
                else:
                    self.expect(".")
                    self.expect("class")
                return False
            self.error(f"unexpected keyword {lex!r} in expression")
        if lex == "(":
            self.i += 1
            self.parse_expression()
            self.expect(")")
            return False
        if kind == "identifier":
            name = lex
            self.i += 1
            if self.at("("):
                self._record_invoke(name)
                self._parse_args()
                return False
            if self.at("<"):
                end = self._scan_type_args(self.i)
                if end is not None and end < len(self.toks) and self.toks[end].lexeme == "::":
                    self.i += 1
                    self._committed_type_args()
                    return False
            self._record_access(name, via_this=False)
            return False
        self.error(f"unexpected token {lex!r} in expression")
        return False

    def _parse_args(self) -> None:
        self.expect("(")
        if self.accept(")"):
            return
        while True:
            self.parse_expression()
            if self.accept(","):
                continue
            self.expect(")")
            return

    def _throwaway_args(self) -> None:
        self._methods.append(_MethodCtx())
        try:
            self._parse_args()
        finally:
            self._methods.pop()

    def _parse_creator(self) -> None:
        if self.at("<"):
            self._skip_type_params()
        ctype = self.parse_type()
        created = ctype.erased.rstrip("[]")
        refs = set(ctype.names)
        if created not in PRIMITIVES:
            refs.add(created)
        if self.at("["):
            # array creation; the element type counts as a created reference
            self._record_refs(refs)
            while self.at("["):
                self.i += 1
                if not self.at("]"):
                    self.parse_expression()
                self.expect("]")
            if self.at("{"):
                self._parse_variable_init()
            return
        if ctype.erased.endswith("[]"):
            self._record_refs(refs)
            if self.at("{"):
                self._parse_variable_init()
            return
        self._record_refs(refs)
        self._parse_args()
        if self.at("{"):
            self._anonymous_body(base_depth=self._depth + 1)

    def _anonymous_body(self, base_depth: int) -> None:
        if not self._classes:
            self.error("anonymous class outside a class")
        owner = self._classes[-1]
        owner.anon_seq += 1
        model = ClassModel(name=f"{owner.model.name}${owner.anon_seq}", kind="class")
        self._base_depth.append(base_depth)
        try:
            self.parse_class_body(model)
        finally:
            self._base_depth.pop()
        owner.model.nested.append(model)


def parse(source: str) -> CompilationUnit:
    """Parse Java 8 source text into a CompilationUnit that keeps the text.

    Raises JavaSyntaxError (or LexError) when the text is outside the
    accepted grammar; the filter rules map either to the unparseable
    verdict.
    """
    raw = tokenize(source)
    code = [t for t in raw if t.kind not in ("comment-line", "comment-block")]
    unit = _Parser(code).run(raw)
    unit.source = source
    return unit


def extract_classes(unit: CompilationUnit) -> list[ClassModel]:
    """Top-level classes of a compilation unit, in source order."""
    return list(unit.types)

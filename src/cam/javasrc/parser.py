"""Recursive-descent parser for Java 8 class files.

Builds ClassModel/MethodModel structures with everything the metric layers
need: per-method decision counts and cognitive scores, accessed-field and
invoked-method names, referenced type names, and file-level statement and
import counts. The package name, import names and field types are parsed
and checked but not kept, since no metric reads them.

Grammar coverage is Java 8: generics, lambdas, anonymous and local classes,
enums, annotation types, try-with-resources, multi-catch, method references.
Later syntax (records, sealed types, `var`, arrow switches) fails with
JavaSyntaxError, which is the pipeline's exclusion signal.

One routine parses each shape, wherever it occurs:
- `_type_decl` a class, interface, enum or annotation type, top-level,
  member or local, and `parse_class_body` its body, an enum's constants
  first;
- `parse_type` a type; `_type_args` every type-argument list, of a type,
  a call (`a.<T>f()`, `new <T>A()`) or a method reference (`A::<T>f`),
  where only a class instance creation takes the diamond `<>` and no type
  argument takes `&`; `_type_params` every type-parameter list;
  `_type_name_list` an `extends`, `implements`, `throws` or `&` list;
  `_dims` the `[]` pairs after a type or a declared name;
- `_type_mention` a type named in an expression (`int.class`,
  `String[]::new`), and `parse_type` a generic one before `::`, found by
  javac's rule (`isUnboundMemberRef`: type arguments after any part of a
  name, then `::`, `.` or `[`); `_parse_creator` a class instance or
  array creation;
- `_local_type` the modifiers and type of a local variable, in a statement
  or a `for` header, told from an expression in one trial;
- `_matching_paren` the extent of a parenthesised list, which tells a
  lambda's parameters from a parenthesised expression and skips an
  annotation's arguments;
- `parse_modifiers` every modifier list, where no word comes twice and a
  variable takes no modifier but `final`.

The cursor is an index into the parser's own copies of the lexer's kind
and lexeme columns, padded with end-of-file entries so a lookahead needs no
bounds test; the lexer's columns are never written. A token test is one
list lookup and one string compare; the empty end-of-file lexeme matches no
expected token. When a '>' is split off a glued '>>' (generics),
`expect_gt` rewrites the copy and logs the old lexeme on a trail, and
every backtrack goes through `_rewind`, which undoes the splits made past
the point it returns to.

The cognitive score (after Campbell, 2018) is added up while parsing. An
`if` head, a loop, a `switch` and a `catch` score 1 plus their depth, each
`else` (an `else if` arm or the final one) and each labelled jump 1, all
in the statement sink: the method whose body holds them, or nowhere in an
initializer block. An expression group (a
condition, an expression statement, an initializer, a `case` label) is
owned by the sink where it opens. Each ternary, each change between `&&`
and `||`, and a lambda body's statements, one level deeper, score in the
owner of the innermost open group, or nowhere when none is open. A field
initializer opens no group, so a ternary in a field of an anonymous class
created in method `f` scores in `f`, and one in a class-level field
nowhere. Depth grows inside an if, a loop, a switch, a catch and a lambda
body, not in a block, `synchronized` or `try`. A method body starts at 0,
or one level under the expression that creates its anonymous class or the
statement that declares its local class; a member class starts where its
enclosing class does.

Binary operators are taken by one loop over an operator table
(`_BINARY_PREC`): precedence changes no recorded figure, since logical
operators are counted and logged in source order, so the loop keeps only
the one rule precedence imposes on acceptance (after `instanceof Type` no
tighter operator may follow). Prefix operators and casts are taken in a
loop too, and a primary and its postfix chain are one method. An `else if`
chain and the false branches of a conditional chain (`a ? b : c ? d : e`)
are parsed in loops, so a chain of any length opens no nesting.

The parser bounds its own nesting: a class body, a block, a statement
other than a block, an expression, an argument list, a type-argument list
and a variable initializer or element value each open a level while they
are parsed, and the token that would open level MAX_NESTING + 1 is a
JavaSyntaxError. Every cycle of calls among the parse routines opens a
level at least every four frames, so a parse takes at most about 850 of
the 1000 frames Python allows a thread by default; any caller that leaves
it that room gets the same verdict.
"""

from __future__ import annotations

from typing import NoReturn

from cam.javasrc.lexer import LITERAL_KINDS, SourceError, Tokens, tokenize
from cam.javasrc.model import (
    ClassModel,
    CompilationUnit,
    FieldModel,
    MethodModel,
)

MODIFIER_WORDS = frozenset(
    "public protected private abstract static final strictfp native "
    "synchronized transient volatile default".split()
)

# A parameter, local, resource, catch or lambda variable takes only 'final'.
_VARIABLE_MODIFIERS = frozenset(["final"])

PRIMITIVES = frozenset("boolean byte short int long char float double".split())

_GT_REMAINDERS = {">>": ">", ">>>": ">>", ">=": "=", ">>=": ">=", ">>>=": ">>="}
_GT_RUNS = frozenset([">", ">>", ">>>"])

_PREFIX_OPS = frozenset(["+", "-", "++", "--", "!", "~"])
_POSTFIX_STARTS = frozenset([".", "[", "++", "--", "::"])
# Tokens that may open the operand of a reference-type cast; '+'/'-' must
# not, or '(a) - b' would parse as a cast.
_CAST_FOLLOW_LEXEMES = frozenset(["(", "!", "~", "this", "super", "new"]) | PRIMITIVES
_CAST_FOLLOW_KINDS = LITERAL_KINDS | {"identifier"}
# What may sit between the '<' and '>' of type arguments besides names.
_TYPE_ARG_LEXEMES = frozenset([",", ".", "?", "[", "]", "@", "extends", "super"]) | PRIMITIVES

# Binding strength of each binary operator, loosest first; every lexeme here
# is an operator token except the keyword 'instanceof', whose right side is
# a type.
_BINARY_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "instanceof": 7,
    "<<": 8, ">>": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}
_TIGHTEST = max(_BINARY_PREC.values())

_ASSIGN_OPS = frozenset(["=", "+=", "-=", "*=", "/=", "&=", "|=", "^=", "%=", "<<=", ">>=", ">>>="])

# Lookahead reaches at most two tokens past the cursor.
_PAD = 2

# The most levels of nesting a file may hold (see the module docstring).
MAX_NESTING = 210


class JavaSyntaxError(SourceError):
    """Input is outside the accepted Java 8 grammar."""


class _MethodCtx:
    __slots__ = ("candidates", "invoked", "decisions", "scopes", "cognitive")

    def __init__(self) -> None:
        self.candidates: set[str] = set()
        self.invoked: set[str] = set()
        self.decisions = 0
        self.scopes: list[set[str]] = [set()]
        self.cognitive = 0


class _ClassCtx:
    __slots__ = ("model", "anon_seq", "pending_access")

    def __init__(self, model: ClassModel) -> None:
        self.model = model
        self.anon_seq = 0
        # (method, raw candidate names); filtered against the finished
        # field list when the class body closes.
        self.pending_access: list[tuple[MethodModel, set[str]]] = []


class _Parser:
    """One file's parse.

    A syntax error abandons the whole parse, so the context stacks and the
    nesting count are pushed and popped without try/finally. The one place
    that recovers from an error is `_try_type`, which puts the nesting
    count back; a type touches none of the stacks.
    """

    def __init__(self, tokens: Tokens, source: str):
        self.tokens = tokens
        self.source = source
        self.lex = tokens.lexemes + [""] * _PAD
        self.kinds = tokens.kinds + ["eof"] * _PAD
        # (index, lexeme before) of each split of a glued '>' run, in order.
        self.trail: list[tuple[int, str]] = []
        self._type_arg_ends: dict[int, int | None] = {}  # _scan_type_args's answers
        self.i = 0
        self.ncss = 0
        self._classes: list[_ClassCtx] = []
        # Where decisions, calls, names and scopes go; outside any method
        # body they go to this context, which nothing reads.
        self._method = _MethodCtx()
        self._base_depth: list[int] = [0]
        # The statement sink and the open group's owner take cognitive
        # scores; outside any method body and any group both are the context
        # above. The group's last logical operator and depth go with it.
        self._sink = self._owner = self._method
        self._last_op = ""
        self._depth = 0
        self.nesting = 0  # levels open now, at most MAX_NESTING

    # ---- cursor helpers -------------------------------------------------

    def at(self, lexeme: str) -> bool:
        return self.lex[self.i] == lexeme

    def accept(self, lexeme: str) -> bool:
        if self.lex[self.i] == lexeme:
            self.i += 1
            return True
        return False

    def expect(self, lexeme: str) -> None:
        if self.lex[self.i] != lexeme:
            found = "end of file" if self.kinds[self.i] == "eof" else repr(self.lex[self.i])
            self.error(f"expected {lexeme!r}, found {found}")
        self.i += 1

    def expect_ident(self) -> str:
        i = self.i
        if self.kinds[i] != "identifier":
            self.error(f"expected identifier, found {self.lex[i]!r}")
        self.i = i + 1
        return self.lex[i]

    def error(self, message: str) -> NoReturn:
        i = self.i
        offset = self.tokens.starts[i] + len(self.tokens.lexemes[i]) - len(self.lex[i])
        raise JavaSyntaxError(self.source, offset, message)

    def _enter(self) -> None:
        """Open one level of nesting; the caller closes it on its way out."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING}")

    def expect_gt(self) -> None:
        """Consume one '>' even when the lexer glued several together."""
        i = self.i
        lexeme = self.lex[i]
        if lexeme == ">":
            self.i = i + 1
            return
        rem = _GT_REMAINDERS.get(lexeme)
        if rem is None:
            self.error(f"expected '>', found {lexeme!r}")
        self.trail.append((i, lexeme))
        self.lex[i] = rem

    def _rewind(self, saved: int) -> None:
        """Move the cursor back to *saved*, undoing the splits made at or past it."""
        while self.trail and self.trail[-1][0] >= saved:
            i, lexeme = self.trail.pop()
            self.lex[i] = lexeme
        self.i = saved

    def _dims(self) -> int:
        """Consume '[]' pairs; return how many."""
        lex = self.lex
        start = i = self.i
        while lex[i] == "[" and lex[i + 1] == "]":
            i += 2
        self.i = i
        return (i - start) // 2

    # ---- expression side-effect plumbing --------------------------------

    def _decide(self) -> None:
        self._method.decisions += 1

    def _record_refs(self, names: set[str]) -> None:
        self._classes[-1].model.referenced_type_names |= names

    def _declare_local(self, name: str) -> None:
        self._method.scopes[-1].add(name)

    def _parse_expr_group(self, depth: int, parse=None) -> None:
        """Parse one expression group at *depth*, with *parse*
        (parse_expression when None), owned by the statement sink."""
        outer = (self._owner, self._last_op, self._depth)
        self._owner = self._sink
        self._last_op = ""
        self._depth = depth
        if parse is None:
            self.parse_expression()
        else:
            parse()
        self._owner, self._last_op, self._depth = outer

    # ---- compilation unit -----------------------------------------------

    def run(self) -> CompilationUnit:
        imports = 0
        types: list[ClassModel] = []

        # Annotations at the very top may belong to a package declaration
        # or to the first type; only commit to the former when 'package'
        # actually follows them.
        saved = self.i
        self._skip_annotations()
        if self.at("package"):
            self.i += 1
            self._skip_qualified_name()
            self.expect(";")
            self.ncss += 1
        else:
            self._rewind(saved)
        while self.kinds[self.i] != "eof":
            if self.accept(";"):
                continue  # a stray ';', among the imports too, as javac takes it
            if not types and self.accept("import"):
                self.accept("static")
                self._skip_qualified_name()
                if self.accept("."):
                    self.expect("*")
                self.expect(";")
                self.ncss += 1
                imports += 1
                continue
            start = self.i
            mods, anns = self.parse_modifiers()
            model = self._type_decl(start, mods, anns)
            if model is None:
                self.error(f"expected a type declaration, found {self.lex[self.i]!r}")
            types.append(model)
        return CompilationUnit(imports, types, self.ncss, self.tokens)

    def _skip_qualified_name(self) -> None:
        lex, kinds = self.lex, self.kinds
        self.expect_ident()
        while lex[self.i] == "." and kinds[self.i + 1] == "identifier":
            self.i += 2

    # ---- annotations and modifiers --------------------------------------

    def _skip_annotation(self) -> None:
        self.expect("@")
        self._skip_qualified_name()
        if self.at("("):
            self.i = self._matching_paren(self.i)
            if self.kinds[self.i] == "eof":
                self.error("unterminated annotation arguments")
            self.i += 1

    def _skip_annotations(self) -> None:
        lex = self.lex
        while lex[self.i] == "@" and lex[self.i + 1] != "interface":
            self._skip_annotation()

    def parse_modifiers(self, allowed: frozenset[str] = MODIFIER_WORDS) -> tuple[set[str], int]:
        """Annotations and modifier words; a word given twice, or one not in
        *allowed*, is an error."""
        lex = self.lex
        mods: set[str] = set()
        anns = 0
        while True:
            lexeme = lex[self.i]
            if lexeme == "@" and lex[self.i + 1] != "interface":
                self._skip_annotation()
                anns += 1
            elif lexeme in MODIFIER_WORDS:
                if lexeme in mods:
                    self.error(f"repeated modifier {lexeme!r}")
                if lexeme not in allowed:
                    self.error(f"modifier {lexeme!r} not allowed here")
                mods.add(lexeme)
                self.i += 1
            else:
                return mods, anns

    # ---- types ----------------------------------------------------------

    def parse_type(self, names: set[str] | None = None, allow_void: bool = False, diamond: bool = False) -> str:
        """Consume a type; return its erased name with '[]' per dimension.

        The class types it names, those in its type arguments included, go
        into *names* when a set is given. Empty type arguments ('<>') are
        taken only with *diamond*, as in a class instance creation."""
        lex, kinds = self.lex, self.kinds
        if lex[self.i] == "@":
            self._skip_annotations()
        i = self.i
        erased = lex[i]
        if kinds[i] == "identifier":
            self.i = i + 1
            if lex[i + 1] == "<":
                self._type_args(names, diamond)
            while lex[self.i] == "." and kinds[self.i + 1] == "identifier":
                erased += "." + lex[self.i + 1]
                self.i += 2
                if lex[self.i] == "<":
                    self._type_args(names, diamond)
            if erased == "var":
                self.error("'var' is not a Java 8 type")
            if names is not None:
                names.add(erased)
        elif erased in PRIMITIVES or (allow_void and erased == "void"):
            self.i = i + 1
        else:
            self.error(f"expected a type, found {erased!r}")
        while True:
            if lex[self.i] == "@":
                self._skip_annotations()
            if lex[self.i] == "[" and lex[self.i + 1] == "]":
                self.i += 2
                erased += "[]"
            else:
                return erased

    def _type_args(self, names: set[str] | None, diamond: bool = False) -> None:
        """Type arguments, entered at their '<'; '<>' only with *diamond*."""
        lex = self.lex
        self._enter()
        self.i += 1
        if not (diamond and (lex[self.i] == ">" or lex[self.i] in _GT_REMAINDERS)):
            while True:
                if lex[self.i] == "@":
                    self._skip_annotations()
                if lex[self.i] == "?":
                    self.i += 1
                    if lex[self.i] == "extends" or lex[self.i] == "super":
                        self.i += 1
                        self.parse_type(names)
                else:
                    self.parse_type(names)
                if lex[self.i] != ",":
                    break
                self.i += 1
        self.expect_gt()
        self.nesting -= 1

    def _try_type(self) -> str | None:
        """parse_type, or None with the cursor and nesting put back when no
        type is here; running out of nesting budget is no wrong guess."""
        saved, nesting = self.i, self.nesting
        try:
            return self.parse_type()
        except JavaSyntaxError:
            if self.nesting > MAX_NESTING:
                raise
            self._rewind(saved)
            self.nesting = nesting
            return None

    def _type_params(self) -> None:
        """Type parameters, entered at their '<': each an annotated name,
        bounded by an optional 'extends' list of types joined by '&'."""
        self.i += 1
        while True:
            self._skip_annotations()
            self.expect_ident()
            if self.accept("extends"):
                self._type_name_list("&")
            if not self.accept(","):
                self.expect_gt()
                return

    # ---- type declarations ----------------------------------------------

    def _type_decl(self, start: int, mods: set[str], anns: int) -> ClassModel | None:
        """The type declaration at the cursor, of any kind, whose modifiers
        start at *start*; None, with the cursor left alone, when none does."""
        kind = self.lex[self.i]
        if kind == "@" and self.lex[self.i + 1] == "interface":
            kind = "annotation"
            self.i += 1
        elif kind not in ("class", "interface", "enum"):
            return None
        self.i += 1
        model = ClassModel(name=self.expect_ident(), kind=kind, modifiers=mods, annotation_count=anns)
        self.ncss += 1
        if kind != "enum" and self.at("<"):
            self._type_params()
        if kind == "class" and self.accept("extends"):
            model.extends_name = self.parse_type().rstrip("[]")
        if kind != "annotation" and self.accept("extends" if kind == "interface" else "implements"):
            model.implements_names = self._type_name_list()
        self.parse_class_body(model, enum=kind == "enum")
        model.tokens = (start, self.i)
        return model

    def _type_name_list(self, separator: str = ",") -> list[str]:
        names = []
        while True:
            names.append(self.parse_type().rstrip("[]"))
            if not self.accept(separator):
                return names

    def parse_class_body(self, model: ClassModel, enum: bool = False) -> None:
        """A class body, its constants first when *enum*. A method keeps
        the names it accessed that name a field of the finished class."""
        ctx = _ClassCtx(model)
        self._classes.append(ctx)
        self._enter()
        self.expect("{")
        members = True
        if enum:
            while True:
                self._skip_annotations()
                if self.at("}") or self.at(";"):
                    break
                self.expect_ident()
                if self.at("("):
                    outer = self._method
                    self._method = _MethodCtx()
                    self._parse_args()
                    self._method = outer
                if self.at("{"):
                    self._anonymous_body(base_depth=0)
                if not self.accept(","):
                    break
            # members follow an enum's constants only after a ';'
            members = self.accept(";")
        if members:
            while not self.at("}"):
                self._parse_member(ctx)
        self.expect("}")
        self.nesting -= 1
        self._classes.pop()
        field_names = {f.name for f in model.fields}
        for method, candidates in ctx.pending_access:
            method.accessed_field_names = candidates & field_names

    def _parse_member(self, ctx: _ClassCtx) -> None:
        lex, kinds = self.lex, self.kinds
        if self.accept(";"):
            return
        if self.at("static") and lex[self.i + 1] == "{":
            self.i += 1
        if self.at("{"):
            self._initializer_block()
            return

        start = self.i
        mods, anns = self.parse_modifiers()
        nested = self._type_decl(start, mods, anns)
        if nested is not None:
            ctx.model.nested.append(nested)
            return
        if lex[self.i] == "<":
            self._type_params()
        i = self.i
        if kinds[i] == "identifier" and lex[i] == ctx.model.name and lex[i + 1] == "(":
            self._method_decl(ctx, mods, constructor=True)
            return
        names: set[str] = set()
        self.parse_type(names, allow_void=True)
        i = self.i
        if kinds[i] == "identifier" and lex[i + 1] == "(":
            self._record_refs(names)
            self._method_decl(ctx, mods, constructor=False)
            return
        if kinds[i] != "identifier":
            self.error(f"expected a member declaration, found {lex[i]!r}")
        self._field_decl(ctx, mods, names)

    def _initializer_block(self) -> None:
        outer = self._method, self._sink
        self._method = self._sink = _MethodCtx()
        self.parse_block(self._base_depth[-1])
        self._method, self._sink = outer

    def _field_decl(self, ctx: _ClassCtx, mods: set[str], names: set[str]) -> None:
        self._record_refs(names)
        implicit_static = ctx.model.kind in ("interface", "annotation")
        is_static = "static" in mods or implicit_static
        while True:
            ctx.model.fields.append(FieldModel(self.expect_ident(), is_static))
            self._dims()
            if self.accept("="):
                outer = self._method
                self._method = _MethodCtx()
                self._parse_initializer()
                self._method = outer
            if not self.accept(","):
                break
        self.expect(";")
        self.ncss += 1

    def _visibility(self, mods: set[str], ctx: _ClassCtx) -> str:
        for word in ("public", "protected", "private"):
            if word in mods:
                return word
        return "public" if ctx.model.kind in ("interface", "annotation") else "package"

    def _method_decl(self, ctx: _ClassCtx, mods: set[str], constructor: bool) -> None:
        name = self.expect_ident()
        self.ncss += 1
        outer = self._method, self._sink
        mctx = self._method = _MethodCtx()
        params = self._parse_params()
        self._dims()
        if self.accept("throws"):
            self._type_name_list()
        if self.at("default"):  # annotation member default value, which scores nowhere
            self.i += 1
            self._sink = _MethodCtx()
            self._parse_initializer(element=True)
        has_body = self.at("{")
        if has_body:
            self._sink = mctx
            self.parse_block(self._base_depth[-1])
        else:
            self.expect(";")
        self._method, self._sink = outer
        method = MethodModel(
            name=name,
            is_constructor=constructor,
            is_static="static" in mods,
            visibility=self._visibility(mods, ctx),
            parameter_type_names=params,
            has_body=has_body,
            cognitive=mctx.cognitive,
            invoked_method_names=mctx.invoked,
            decisions=mctx.decisions,
        )
        ctx.model.methods.append(method)
        ctx.pending_access.append((method, mctx.candidates))

    def _parse_params(self) -> list[str]:
        lex = self.lex
        self.expect("(")
        params: list[str] = []
        if self.accept(")"):
            return params
        while True:
            self.parse_modifiers(_VARIABLE_MODIFIERS)
            names: set[str] = set()
            ptype = self.parse_type(names)
            varargs = self.accept("...")
            if self.at("this"):
                self.i += 1  # receiver parameter, not a real one
            elif self.kinds[self.i] == "identifier" and lex[self.i + 1] == "." and lex[self.i + 2] == "this":
                self.i += 3  # qualified receiver
            else:
                pname = self.expect_ident()
                params.append(ptype + "[]" * (self._dims() + varargs))
                self._record_refs(names)
                self._declare_local(pname)
            if varargs or not self.accept(","):  # '...' on the last parameter only
                self.expect(")")
                return params

    def _parse_initializer(self, element: bool = False) -> None:
        """A variable initializer, or with *element* an annotation element value:
        a '{...}' list of them, which a ',' may end, or an expression (or annotation)."""
        self._enter()
        if self.at("{"):
            self.i += 1
            while not self.at("}"):
                self._parse_initializer(element)
                if not self.accept(","):
                    break
            self.expect("}")
        elif not element:
            self.parse_expression()
        elif self.at("@"):
            self._skip_annotation()
        else:
            self._parse_expr_group(self._depth, self.parse_ternary)
        self.nesting -= 1

    # ---- statements ------------------------------------------------------

    def parse_block(self, depth: int) -> None:
        lex = self.lex
        self._enter()
        self.expect("{")
        scopes = self._method.scopes
        scopes.append(set())
        while lex[self.i] != "}":
            self.parse_statement(depth)
        self.i += 1
        scopes.pop()
        self.nesting -= 1

    def parse_statement(self, d: int) -> None:
        i = self.i
        lex = self.lex[i]
        if lex == "{":
            self.parse_block(d)  # one level, the block's
            return
        self._enter()
        kind = self.kinds[i]
        if kind == "identifier":
            if self.lex[i + 1] == ":":
                self.i = i + 2
                self.parse_statement(d)
            else:
                self._local_decl_or_expr(d)
        elif kind == "eof":
            self.error("unexpected end of file in statement")
        elif lex == ";":
            self.i += 1
            self.ncss += 1
        elif lex == "if":
            self._if_stmt(d)
        elif lex == "for":
            self._for_stmt(d)
        elif lex == "while":
            self._while_stmt(d)
        elif lex == "do":
            self._do_stmt(d)
        elif lex == "switch":
            self._switch_stmt(d)
        elif lex == "try":
            self._try_stmt(d)
        elif lex == "return" or lex == "throw" or lex == "assert":
            # only a return may leave its expression out, only an assert
            # adds a message
            self.i += 1
            if lex != "return" or not self.at(";"):
                self._parse_expr_group(d)
            if lex == "assert" and self.accept(":"):
                self._parse_expr_group(d)
            self.expect(";")
            self.ncss += 1
        elif lex == "break" or lex == "continue":
            self.i += 1
            if self.kinds[self.i] == "identifier":
                self.i += 1
                self._sink.cognitive += 1
            self.expect(";")
            self.ncss += 1
        elif lex == "synchronized":
            self.i += 1
            self.expect("(")
            self._parse_expr_group(d)
            self.expect(")")
            self.parse_block(d)
        elif lex in ("class", "interface", "enum", "abstract", "final", "static", "strictfp", "@"):
            mods, anns = self.parse_modifiers()
            self._base_depth.append(d + 1)
            local = self._type_decl(i, mods, anns)
            self._base_depth.pop()
            if local is not None:
                self._classes[-1].model.nested.append(local)
            else:
                self._rewind(i)  # 'final' or an annotation opening a local variable declaration
                self._local_decl_or_expr(d)
        else:
            self._local_decl_or_expr(d)
        self.nesting -= 1

    def _local_decl_or_expr(self, d: int) -> None:
        if self._local_type():
            self._declarators(d)
        else:
            self._parse_expr_group(d)
        self.expect(";")
        self.ncss += 1

    def _local_type(self) -> bool:
        """Whether a local variable declaration starts here, whose modifiers
        and type are then consumed; modifiers that start none are an error."""
        saved = self.i
        modified = self.lex[saved] == "@" or self.lex[saved] in MODIFIER_WORDS
        if modified:
            self.parse_modifiers(_VARIABLE_MODIFIERS)
        if self._try_type() is not None and self.kinds[self.i] == "identifier":
            return True
        if modified:
            self.error("expected a declaration")
        self._rewind(saved)
        return False

    def _declarators(self, d: int) -> None:
        """Names of a local declaration whose type was just consumed, each
        with its dimensions and initializer, up to the ';' or ':'."""
        lex = self.lex
        while True:
            self._declare_local(self.expect_ident())
            self._dims()
            if lex[self.i] == "=":
                self.i += 1
                self._parse_expr_group(d, self._parse_initializer)
            if lex[self.i] != ",":
                return
            self.i += 1

    def _if_stmt(self, d: int) -> None:
        """An if statement and its whole else-if chain, parsed in a loop.
        The head `if` scores 1 plus its depth, and each `else` 1, be it an
        `else if` arm or the final one."""
        self._sink.cognitive += 1 + d
        while True:
            self.expect("if")
            self.ncss += 1
            self._decide()
            self.expect("(")
            self._parse_expr_group(d)
            self.expect(")")
            self.parse_statement(d + 1)
            if not self.accept("else"):
                return
            self.ncss += 1
            self._sink.cognitive += 1
            if not self.at("if"):
                self.parse_statement(d + 1)
                return

    def _for_stmt(self, d: int) -> None:
        self.expect("for")
        self.ncss += 1
        self._sink.cognitive += 1 + d
        self._decide()
        self.expect("(")
        scopes = self._method.scopes
        scopes.append(set())
        declared = self._local_type()
        i = self.i
        if declared and self.lex[i + 1] == ":":  # an enhanced for
            self.i = i + 2
            self._declare_local(self.lex[i])
            self._parse_expr_group(d)
        else:
            if declared:
                self._declarators(d)
            elif not self.at(";"):
                self._expr_list(d)
            self.expect(";")
            if not self.at(";"):
                self._parse_expr_group(d)
            self.expect(";")
            if not self.at(")"):
                self._expr_list(d)
        self.expect(")")
        self.parse_statement(d + 1)
        scopes.pop()

    def _expr_list(self, d: int) -> None:
        while True:
            self._parse_expr_group(d)
            if not self.accept(","):
                return

    def _while_stmt(self, d: int) -> None:
        self.expect("while")
        self.ncss += 1
        self._decide()
        self._sink.cognitive += 1 + d
        self.expect("(")
        self._parse_expr_group(d)
        self.expect(")")
        self.parse_statement(d + 1)

    def _do_stmt(self, d: int) -> None:
        self.expect("do")
        self.ncss += 1
        self._decide()
        self._sink.cognitive += 1 + d
        self.parse_statement(d + 1)
        self.expect("while")
        self.expect("(")
        self._parse_expr_group(d)
        self.expect(")")
        self.expect(";")

    def _switch_stmt(self, d: int) -> None:
        self.expect("switch")
        self.ncss += 1
        self._sink.cognitive += 1 + d
        self.expect("(")
        self._parse_expr_group(d)
        self.expect(")")
        self.expect("{")
        labelled = False
        while not self.at("}"):
            if self.at("case"):
                self.i += 1
                self.ncss += 1
                self._decide()
                self._parse_expr_group(self._depth, self.parse_ternary)
                self.expect(":")
                labelled = True
            elif self.at("default"):
                self.i += 1
                self.expect(":")
                labelled = True
            elif not labelled:
                self.error("statement outside any switch label")
            else:
                self.parse_statement(d + 1)
        self.expect("}")

    def _try_stmt(self, d: int) -> None:
        self.expect("try")
        self.ncss += 1
        scopes = self._method.scopes
        scopes.append(set())
        if self.at("("):
            self.i += 1
            while True:
                self.parse_modifiers(_VARIABLE_MODIFIERS)
                self.parse_type()
                self._declare_local(self.expect_ident())
                self.expect("=")
                self._parse_expr_group(d)
                if not self.accept(";") or self.at(")"):
                    break
            self.expect(")")
        self.parse_block(d)
        scopes.pop()
        while self.at("catch"):
            self.i += 1
            self.ncss += 1
            self._decide()
            self._sink.cognitive += 1 + d
            self.expect("(")
            scopes.append(set())
            self.parse_modifiers(_VARIABLE_MODIFIERS)
            names: set[str] = set()
            self.parse_type(names)
            while self.accept("|"):
                self.parse_type(names)
            self._record_refs(names)
            self._declare_local(self.expect_ident())
            self.expect(")")
            self.parse_block(d + 1)
            scopes.pop()
        if self.accept("finally"):
            self.ncss += 1
            self.parse_block(d)

    # ---- expressions -----------------------------------------------------

    def parse_expression(self) -> None:
        """A lambda, or a ternary; assignments and ternary false branches
        chain to the right in this loop, so a long chain costs no recursion."""
        lex, kinds = self.lex, self.kinds
        self._enter()
        while True:
            i = self.i
            if (lex[i] == "(" or (kinds[i] == "identifier" and lex[i + 1] == "->")) and self._try_lambda():
                break
            self._parse_binary()
            if lex[self.i] == "?":
                self._ternary_head()
                continue
            if lex[self.i] not in _ASSIGN_OPS:
                break
            self.i += 1
        self.nesting -= 1

    def _try_lambda(self) -> bool:
        """Parse a lambda when one starts at the cursor.

        Its body sits one level deeper and scores with the group's owner;
        the parameters are locals of the body."""
        lex = self.lex
        i = self.i
        if self.kinds[i] == "identifier" and lex[i + 1] == "->":
            self.i = i + 2
            names = [lex[i]]
        elif lex[i] == "(" and lex[self._matching_paren(i) + 1] == "->":
            names = self._lambda_params()
        else:
            return False
        scopes = self._method.scopes
        scopes.append(set(names))
        outer = self._sink, self._depth
        self._sink = self._owner
        self._depth = depth = self._depth + 1
        if self.at("{"):
            self.parse_block(depth)
        else:
            last_op, self._last_op = self._last_op, ""
            self.parse_expression()  # a group, without _parse_expr_group's frame
            self._last_op = last_op
        self._sink, self._depth = outer
        scopes.pop()
        return True

    def _matching_paren(self, start: int) -> int:
        """Index of the ')' that closes the '(' at *start*, or of the end of
        file when none does."""
        lex, kinds = self.lex, self.kinds
        depth = 0
        j = start
        while True:
            lexeme = lex[j]
            if lexeme == "(":
                depth += 1
            elif lexeme == ")":
                depth -= 1
                if depth == 0:
                    return j
            elif kinds[j] == "eof":
                return j
            j += 1

    def _lambda_params(self) -> list[str]:
        """Names of a parenthesised lambda's parameters, through its '->'."""
        lex = self.lex
        self.expect("(")
        names: list[str] = []
        if not self.at(")"):
            if self.kinds[self.i] == "identifier" and lex[self.i + 1] in (",", ")"):
                while True:
                    names.append(self.expect_ident())
                    if not self.accept(","):
                        break
            else:
                while True:
                    self.parse_modifiers(_VARIABLE_MODIFIERS)
                    self.parse_type()
                    varargs = self.accept("...")
                    names.append(self.expect_ident())
                    self._dims()
                    if varargs or not self.accept(","):
                        break
        self.expect(")")
        self.expect("->")
        return names

    def parse_ternary(self) -> None:
        self._enter()
        self._parse_binary()
        if self.at("?"):
            self._ternary_head()
            self.parse_expression()
        self.nesting -= 1

    def _ternary_head(self) -> None:
        """'? true-branch :' after a condition; the caller parses the false branch."""
        self.i += 1
        self._decide()
        self._owner.cognitive += 1
        self.parse_expression()
        self.expect(":")

    def _parse_binary(self) -> None:
        """Operands joined by left-associative binary operators, in one loop.

        Logical operators are counted and logged in source order, so
        precedence changes no recorded figure. The one rule it imposes on
        acceptance is kept: after 'instanceof Type' only an operator as
        loose as 'instanceof' may follow, so 'a instanceof T * b' is
        rejected."""
        lex = self.lex
        self._parse_operand()
        ceiling = _TIGHTEST
        while True:
            op = lex[self.i]
            prec = _BINARY_PREC.get(op)
            if prec is None or prec > ceiling:
                return
            self.i += 1
            if op == "instanceof":
                self.parse_type()
                ceiling = prec
                continue
            if prec <= 2:
                self._decide()
                # each change between '&&' and '||' in a group scores 1
                if op != self._last_op:
                    if self._last_op:
                        self._owner.cognitive += 1
                    self._last_op = op
            ceiling = _TIGHTEST
            self._parse_operand()

    def _cast_head(self) -> bool:
        """At '(': consume '(Type)' and return True when it opens a cast."""
        lex, kinds = self.lex, self.kinds
        saved = self.i
        self.i = saved + 1
        ctype = self._try_type()
        if ctype is not None:
            while lex[self.i] == "&":
                self.i += 1
                if self._try_type() is None:
                    self._rewind(saved)
                    return False
            if lex[self.i] == ")":
                j = self.i + 1
                nxt = lex[j]
                if kinds[j] in _CAST_FOLLOW_KINDS or nxt in _CAST_FOLLOW_LEXEMES or (ctype in PRIMITIVES and nxt in _PREFIX_OPS):
                    self.i = j
                    return True
        self._rewind(saved)
        return False

    def _parse_operand(self) -> None:
        """One unary expression: prefix operators and casts, a primary,
        then the primary's selectors, calls, indexes and postfix operators."""
        lex, kinds = self.lex, self.kinds
        i = self.i
        lexeme = lex[i]
        while lexeme in _PREFIX_OPS or lexeme == "(":
            if lexeme != "(":
                self.i += 1
            elif not self._cast_head():
                break
            elif self._try_lambda():
                return
            lexeme = lex[self.i]

        # The primary; bare_this is True for a lone `this`, whose field
        # selections count as accesses.
        i = self.i
        kind = kinds[i]
        bare_this = False
        if kind == "identifier":
            self.i = i + 1
            after = lex[i + 1]
            if after == "(":
                self._method.invoked.add(lexeme)
                self._parse_args()
            else:
                j = i + 1  # javac's isUnboundMemberRef: a generic type, then '::'
                while lex[j] == "." and kinds[j + 1] == "identifier":
                    j += 2
                end = self._scan_type_args(j) if lex[j] == "<" else None
                if end is not None and lex[end] in ("::", ".", "["):
                    self.i = i
                    self.parse_type()
                    if lex[self.i] != "::":
                        self.expect("::")
                else:
                    ctx = self._method
                    for scope in ctx.scopes:
                        if lexeme in scope:
                            break
                    else:
                        ctx.candidates.add(lexeme)
        elif kind in LITERAL_KINDS:
            self.i = i + 1
        elif lexeme == "(":
            self.i = i + 1
            self.parse_expression()
            self.expect(")")
        elif kind == "keyword":
            self.i = i + 1
            if lexeme == "this" or lexeme == "super":
                if lex[i + 1] == "(":
                    self._parse_args()  # constructor delegation
                else:
                    bare_this = lexeme == "this"
            elif lexeme == "new":
                self._parse_creator()
            elif lexeme in PRIMITIVES or lexeme == "void":
                self._type_mention()  # int.class, int[].class, double[][]::new
            elif lexeme not in ("true", "false", "null"):
                self.i = i
                self.error(f"unexpected keyword {lexeme!r} in expression")
        else:
            self.error(f"unexpected token {lexeme!r} in expression")

        while True:
            lexeme = lex[self.i]
            if lexeme not in _POSTFIX_STARTS:
                return
            if lexeme == ".":
                nxt = lex[self.i + 1]
                if nxt == "new":
                    self.i += 2
                    self._parse_creator()
                elif nxt == "this" or nxt == "class":
                    self.i += 2
                elif nxt == "super":
                    self.i += 2
                    self.expect(".")
                    name = self.expect_ident()
                    if self.at("("):
                        self._method.invoked.add(name)
                        self._parse_args()
                elif nxt == "<":
                    self.i += 1
                    self._type_args(None)
                    self._method.invoked.add(self.expect_ident())
                    self._parse_args()
                else:
                    self.i += 1
                    name = self.expect_ident()
                    if self.at("("):
                        self._method.invoked.add(name)
                        self._parse_args()
                    elif bare_this:
                        self._method.candidates.add(name)
            elif lexeme == "[":
                if lex[self.i + 1] == "]":
                    self._type_mention()  # String[]::new, String[].class
                else:
                    self.i += 1
                    self.parse_expression()
                    self.expect("]")
            elif lexeme == "++" or lexeme == "--":
                self.i += 1
            else:  # '::'
                self.i += 1
                if self.at("<"):
                    self._type_args(None)
                if self.at("new"):
                    self.i += 1
                else:
                    self.expect_ident()
            bare_this = False

    def _type_mention(self) -> None:
        """The rest of a type named in an expression after its name: its
        dimensions, then '.class' or a '::' left to the postfix loop."""
        self._dims()
        if not self.at("::"):
            self.expect(".")
            self.expect("class")

    def _scan_type_args(self, start: int) -> int | None:
        """Lookahead from a '<' at *start*; index just past the closing '>'
        run, or None when this cannot be a type-argument list. One pass over
        the lexer's lexemes, which no '>>' split changes, answers every '<'
        of a run of type-like tokens for the file: a '>' run of length k
        closes the k innermost open '<', and only the outermost ends there."""
        ends = self._type_arg_ends
        if start not in ends:
            lex, kinds = self.tokens.lexemes, self.kinds
            ends[start] = None
            opened = [start]
            j = start
            while opened:
                j += 1
                lexeme = lex[j]
                if lexeme == "<":
                    opened.append(j)
                    ends[j] = None
                elif lexeme in _GT_RUNS:
                    if len(lexeme) <= len(opened):
                        ends[opened[-len(lexeme)]] = j + 1
                    del opened[-len(lexeme) :]
                elif kinds[j] != "identifier" and lexeme not in _TYPE_ARG_LEXEMES:
                    break
        return ends[start]

    def _parse_args(self) -> None:
        lex = self.lex
        self._enter()
        self.expect("(")
        if lex[self.i] != ")":
            while True:
                self.parse_expression()
                if lex[self.i] != ",":
                    break
                self.i += 1
        self.expect(")")
        self.nesting -= 1

    def _parse_creator(self) -> None:
        if self.at("<"):
            self._type_args(None)
        refs: set[str] = set()
        erased = self.parse_type(refs, diamond=True)
        # an array's element type counts as a created reference too
        created = erased.rstrip("[]")
        if created not in PRIMITIVES:
            refs.add(created)
        self._record_refs(refs)
        if self.at("[") or erased.endswith("[]"):
            sized = False
            empty = erased.endswith("[]")
            while self.at("["):
                self.i += 1
                if self.at("]"):
                    empty = True
                elif not empty:  # no dimension expression after a `[]`
                    self.parse_expression()
                    sized = True
                self.expect("]")
            if self.at("{"):
                if sized:
                    self.error("array creation with both dimension expression and initialization")
                self._parse_initializer()
            elif not sized:
                self.error("array dimension missing")
            return
        self._parse_args()
        if self.at("{"):
            self._anonymous_body(base_depth=self._depth + 1)

    def _anonymous_body(self, base_depth: int) -> None:
        owner = self._classes[-1]
        owner.anon_seq += 1
        model = ClassModel(name=f"{owner.model.name}${owner.anon_seq}", kind="class")
        self._base_depth.append(base_depth)
        self.parse_class_body(model)
        self._base_depth.pop()
        owner.model.nested.append(model)


def parse(source: str) -> CompilationUnit:
    """Parse Java 8 source text into a CompilationUnit.

    Raises JavaSyntaxError (or LexError) when the text is outside the
    accepted grammar; the filter rules map either to the unparseable
    verdict.
    """
    return _Parser(tokenize(source), source).run()


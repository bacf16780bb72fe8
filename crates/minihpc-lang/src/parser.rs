//! Recursive-descent parser for MiniHPC.
//!
//! The grammar is a C subset extended with the dialect constructs the
//! ParEval-Repo applications need: CUDA qualifiers and kernel launches,
//! OpenMP pragmas (structured, see [`crate::pragma`]), Kokkos views, paths
//! and lambdas. Parse errors map to the paper's "Code Syntax Error" build
//! category; malformed OpenMP directives map to "OpenMP Invalid Directive".

use crate::ast::*;
use crate::lexer::{self, LexError};
use crate::pragma::*;
use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::fmt;

/// A syntax error with a source span.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub span: Span,
    /// True when the error occurred inside an OpenMP directive — the build
    /// driver reports these under a distinct diagnostic category.
    pub in_omp_directive: bool,
}

impl ParseError {
    fn new(message: impl Into<String>, span: Span) -> Self {
        ParseError {
            message: message.into(),
            span,
            in_omp_directive: false,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::new(e.message, e.span)
    }
}

/// Parse a complete source file (after macro expansion).
pub fn parse_file(src: &str) -> Result<SourceFile, ParseError> {
    let tokens = lexer::expand_defines(lexer::lex(src)?);
    Parser::new(tokens).parse_source_file()
}

/// Parse a single expression from source text (test/injector helper).
pub fn parse_expr_str(src: &str) -> Result<Expr, ParseError> {
    let tokens = lexer::lex(src)?;
    let mut p = Parser::new(tokens);
    let e = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Parse a single statement from source text (test/injector helper).
pub fn parse_stmt_str(src: &str) -> Result<Stmt, ParseError> {
    let tokens = lexer::lex(src)?;
    let mut p = Parser::new(tokens);
    let s = p.parse_stmt()?;
    p.expect_eof()?;
    Ok(s)
}

/// Parse the token stream of a `#pragma` line. Returns `Ok(None)` for
/// non-OpenMP pragmas (which are preserved verbatim).
pub fn parse_omp_directive(
    mut tokens: Vec<Token>,
    span: Span,
) -> Result<Option<OmpDirective>, ParseError> {
    tokens.push(Token::new(TokenKind::Eof, span));
    let mut p = Parser::new(tokens);
    if !p.at_ident("omp") {
        return Ok(None);
    }
    p.bump();
    let d = p.parse_omp_body(span).map_err(|mut e| {
        e.in_omp_directive = true;
        e
    })?;
    Ok(Some(d))
}

/// The parser owns its token stream and moves each token out as it
/// consumes it: a consumed token is read again only for its span.
struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0 }
    }

    // -- token helpers ------------------------------------------------------

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.peek().span
    }

    /// Consume the current token and move it out. Its slot keeps the span
    /// and an `Eof` kind. The stream's final `Eof` is never consumed: at
    /// the end, each call returns a copy of it.
    fn bump(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.pos >= last {
            return self.tokens[last].clone();
        }
        let slot = &mut self.tokens[self.pos];
        self.pos += 1;
        Token::new(std::mem::replace(&mut slot.kind, TokenKind::Eof), slot.span)
    }

    /// Consume the current token, which the caller has peeked to be an
    /// identifier, and move its name out.
    fn bump_ident(&mut self) -> String {
        match self.bump().kind {
            TokenKind::Ident(name) => name,
            other => unreachable!("peeked an identifier, consumed {}", other.describe()),
        }
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn at_any_ident(&self) -> bool {
        matches!(self.peek_kind(), TokenKind::Ident(_))
    }

    fn at_ident(&self, name: &str) -> bool {
        matches!(self.peek_kind(), TokenKind::Ident(s) if s == name)
    }

    fn ident_ahead(&self, n: usize) -> Option<&str> {
        match self.peek_ahead(n) {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if self.at_ident(name) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(ParseError::new(
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek_kind().describe()
                ),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), ParseError> {
        if !self.at_any_ident() {
            return self.error(format!(
                "expected identifier, found {}",
                self.peek_kind().describe()
            ));
        }
        let span = self.span();
        Ok((self.bump_ident(), span))
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if matches!(self.peek_kind(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(ParseError::new(
                format!(
                    "unexpected {} after end of construct",
                    self.peek_kind().describe()
                ),
                self.span(),
            ))
        }
    }

    fn error<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::new(msg, self.span()))
    }

    // -- items --------------------------------------------------------------

    fn parse_source_file(&mut self) -> Result<SourceFile, ParseError> {
        let mut items = Vec::new();
        while !matches!(self.peek_kind(), TokenKind::Eof) {
            items.push(self.parse_item()?);
        }
        Ok(SourceFile { items })
    }

    fn parse_item(&mut self) -> Result<Item, ParseError> {
        let start = self.span();
        let kind = match self.peek_kind() {
            TokenKind::Ident(kw) if kw == "typedef" => return self.parse_typedef_struct(),
            TokenKind::Ident(kw)
                if kw == "struct" && matches!(self.peek_ahead(2), TokenKind::LBrace) =>
            {
                return self.parse_struct_def(false);
            }
            kind if kind.is_preprocessor() => match self.bump().kind {
                TokenKind::Include { path, system } => ItemKind::Include { path, system },
                TokenKind::Define { name, body } => ItemKind::Define {
                    name,
                    body_text: tokens_to_text(&body),
                },
                TokenKind::OtherDirective(d) => ItemKind::OtherDirective(d),
                // Item-level pragmas (e.g. `#pragma once`) are preserved.
                TokenKind::Pragma { text, .. } => {
                    ItemKind::OtherDirective(format!("pragma {text}"))
                }
                other => unreachable!("peeked a directive, consumed {}", other.describe()),
            },
            _ => return self.parse_function_or_global(),
        };
        Ok(Item { kind, span: start })
    }

    fn parse_typedef_struct(&mut self) -> Result<Item, ParseError> {
        let start = self.span();
        self.bump(); // typedef
        if !self.eat_ident("struct") {
            return self.error("only `typedef struct` is supported");
        }
        // An optional tag name, which MiniHPC does not record.
        if self.at_any_ident() {
            self.bump();
        }
        let fields = self.parse_struct_fields()?;
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Item {
            kind: ItemKind::Struct(StructDef {
                name,
                fields,
                is_typedef: true,
                span: start,
            }),
            span: start,
        })
    }

    fn parse_struct_def(&mut self, _typedef: bool) -> Result<Item, ParseError> {
        let start = self.span();
        self.bump(); // struct
        let (name, _) = self.expect_ident()?;
        let fields = self.parse_struct_fields()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Item {
            kind: ItemKind::Struct(StructDef {
                name,
                fields,
                is_typedef: false,
                span: start,
            }),
            span: start,
        })
    }

    fn parse_struct_fields(&mut self) -> Result<Vec<Field>, ParseError> {
        self.expect(&TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            let ty = self.parse_type()?;
            loop {
                let (name, _) = self.expect_ident()?;
                let mut array_dims = Vec::new();
                while self.eat(&TokenKind::LBracket) {
                    array_dims.push(self.parse_expr()?);
                    self.expect(&TokenKind::RBracket)?;
                }
                fields.push(Field {
                    ty: ty.clone(),
                    name,
                    array_dims,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::Semi)?;
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(fields)
    }

    fn parse_fn_quals(&mut self) -> FnQuals {
        let mut quals = FnQuals::default();
        loop {
            if self.eat_ident("__global__") {
                quals.cuda_global = true;
            } else if self.eat_ident("__device__") {
                quals.cuda_device = true;
            } else if self.eat_ident("__host__") {
                quals.cuda_host = true;
            } else if self.eat_ident("static") {
                quals.is_static = true;
            } else if self.eat_ident("inline") {
                quals.is_inline = true;
            } else if self.eat_ident("extern") {
                // `extern` prototypes behave like plain declarations here.
            } else {
                return quals;
            }
        }
    }

    fn parse_function_or_global(&mut self) -> Result<Item, ParseError> {
        let start = self.span();
        let quals = self.parse_fn_quals();
        let ty = self.parse_type()?;
        let (name, _) = self.expect_ident()?;

        if self.at(&TokenKind::LParen) {
            // Function definition or declaration.
            let params = self.parse_params()?;
            let body = if self.at(&TokenKind::LBrace) {
                Some(self.parse_block()?)
            } else {
                self.expect(&TokenKind::Semi)?;
                None
            };
            let end = self.tokens[self.pos.saturating_sub(1)].span;
            Ok(Item {
                kind: ItemKind::Function(Function {
                    quals,
                    ret: ty,
                    name,
                    params,
                    body,
                    span: start.to(end),
                }),
                span: start.to(end),
            })
        } else {
            // Global variable.
            let decl = self.finish_var_decl(ty, name, quals.is_static)?;
            self.expect(&TokenKind::Semi)?;
            Ok(Item {
                kind: ItemKind::Global(decl),
                span: start,
            })
        }
    }

    fn parse_params(&mut self) -> Result<Vec<Param>, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.at(&TokenKind::RParen) {
            self.bump();
            return Ok(params);
        }
        // `(void)` parameter list.
        if self.at_ident("void") && matches!(self.peek_ahead(1), TokenKind::RParen) {
            self.bump();
            self.bump();
            return Ok(params);
        }
        loop {
            let ty = self.parse_type()?;
            // C++ reference marker (`double& lsum` in Kokkos reduce lambdas):
            // MiniHPC treats reference parameters as the interpreter's
            // accumulator convention, so the `&` is accepted and dropped.
            self.eat(&TokenKind::Amp);
            let name = if self.at_any_ident() {
                self.bump_ident()
            } else {
                // Unnamed parameter in a prototype.
                String::new()
            };
            // `T x[]` decays to pointer.
            let mut ty = ty;
            while self.eat(&TokenKind::LBracket) {
                if !self.at(&TokenKind::RBracket) {
                    let _ = self.parse_expr()?;
                }
                self.expect(&TokenKind::RBracket)?;
                ty = Type::ptr(ty);
            }
            params.push(Param { ty, name });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(params)
    }

    // -- types --------------------------------------------------------------

    /// Is the token at offset `n` the start of a type?
    fn is_type_start(&self, n: usize) -> bool {
        match self.peek_ahead(n) {
            TokenKind::Ident(s) => {
                ScalarType::from_keyword(s).is_some()
                    || s == "const"
                    || s == "struct"
                    || s == "dim3"
                    || s == "unsigned"
                    || s == "Kokkos"
                    || s == "View"
            }
            _ => false,
        }
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        let mut is_const = false;
        while self.eat_ident("const") {
            is_const = true;
        }
        let mut base = self.parse_base_type()?;
        // `const` may also follow the base type (`int const`).
        while self.eat_ident("const") {
            is_const = true;
        }
        while self.eat(&TokenKind::Star) {
            if is_const {
                base = Type::Const(Box::new(base));
                is_const = false;
            }
            base = Type::ptr(base);
            while self.eat_ident("const") {
                is_const = true;
            }
        }
        if is_const {
            base = Type::Const(Box::new(base));
        }
        Ok(base)
    }

    fn parse_base_type(&mut self) -> Result<Type, ParseError> {
        // `unsigned int` / `unsigned long` treated as their signed widths
        // (MiniHPC ints are i64 at runtime; signedness is not modelled).
        if self.eat_ident("unsigned") {
            if let TokenKind::Ident(s) = self.peek_kind() {
                if let Some(sc) = ScalarType::from_keyword(s) {
                    self.bump();
                    return Ok(Type::Scalar(sc));
                }
            }
            return Ok(Type::INT);
        }
        if self.eat_ident("struct") {
            let (name, _) = self.expect_ident()?;
            return Ok(Type::Named(name));
        }
        if self.eat_ident("dim3") {
            return Ok(Type::Dim3);
        }
        // Kokkos::View<...> or bare View<...>.
        if self.at_ident("Kokkos") && matches!(self.peek_ahead(1), TokenKind::ColonColon) {
            if self.ident_ahead(2) == Some("View") {
                self.bump(); // Kokkos
                self.bump(); // ::
                self.bump(); // View
                return self.parse_view_args();
            }
            return self.error("unknown Kokkos type (only Kokkos::View is supported)");
        }
        if self.at_ident("View") && matches!(self.peek_ahead(1), TokenKind::Lt) {
            self.bump();
            return self.parse_view_args();
        }
        let (name, sp) = self.expect_ident()?;
        if let Some(sc) = ScalarType::from_keyword(&name) {
            return Ok(Type::Scalar(sc));
        }
        // Heuristic: a named (typedef'd struct) type. Reject obvious
        // non-types so expression-statement misparses surface clearly.
        if name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        {
            Ok(Type::Named(name))
        } else {
            Err(ParseError::new(
                format!("expected type, found `{name}`"),
                sp,
            ))
        }
    }

    fn parse_view_args(&mut self) -> Result<Type, ParseError> {
        self.expect(&TokenKind::Lt)?;
        let (name, sp) = self.expect_ident()?;
        let elem = ScalarType::from_keyword(&name)
            .ok_or_else(|| ParseError::new(format!("unknown View element type `{name}`"), sp))?;
        let mut rank: u8 = 0;
        while self.eat(&TokenKind::Star) {
            rank += 1;
        }
        if rank == 0 {
            return self.error("Kokkos::View requires at least one `*` in its element type");
        }
        self.expect(&TokenKind::Gt)?;
        Ok(Type::View { elem, rank })
    }

    // -- statements ---------------------------------------------------------

    fn parse_block(&mut self) -> Result<Block, ParseError> {
        let start = self.span();
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            if matches!(self.peek_kind(), TokenKind::Eof) {
                return self.error("unexpected end of file inside block (missing `}`)");
            }
            stmts.push(self.parse_stmt()?);
        }
        let end = self.span();
        self.expect(&TokenKind::RBrace)?;
        Ok(Block {
            stmts,
            span: start.to(end),
        })
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        match self.peek_kind() {
            TokenKind::Pragma { .. } => {
                let TokenKind::Pragma { text, tokens } = self.bump().kind else {
                    unreachable!("peeked a pragma")
                };
                match parse_omp_directive(tokens, start)? {
                    Some(directive) => {
                        let body = if directive.is_standalone() {
                            None
                        } else {
                            Some(Box::new(self.parse_stmt()?))
                        };
                        Ok(Stmt::new(StmtKind::Omp { directive, body }, start))
                    }
                    None => Ok(Stmt::new(StmtKind::RawPragma(text), start)),
                }
            }
            TokenKind::LBrace => {
                let b = self.parse_block()?;
                let span = b.span;
                Ok(Stmt::new(StmtKind::Block(b), span))
            }
            TokenKind::Semi => {
                self.bump();
                Ok(Stmt::new(StmtKind::Empty, start))
            }
            TokenKind::Ident(kw) => match kw.as_str() {
                "if" => self.parse_if(),
                "while" => self.parse_while(),
                "for" => self.parse_for(),
                "return" => {
                    self.bump();
                    let value = if self.at(&TokenKind::Semi) {
                        None
                    } else {
                        Some(self.parse_expr()?)
                    };
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::new(StmtKind::Return(value), start))
                }
                "break" => {
                    self.bump();
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::new(StmtKind::Break, start))
                }
                "continue" => {
                    self.bump();
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::new(StmtKind::Continue, start))
                }
                _ if self.stmt_starts_decl() => {
                    let s = self.parse_decl_stmt()?;
                    Ok(s)
                }
                _ => {
                    let e = self.parse_expr()?;
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::new(StmtKind::Expr(e), start))
                }
            },
            _ => {
                let e = self.parse_expr()?;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::new(StmtKind::Expr(e), start))
            }
        }
    }

    /// Decide whether the statement starting here is a declaration.
    fn stmt_starts_decl(&self) -> bool {
        if self.at_ident("static") || self.at_ident("const") {
            return true;
        }
        if self.is_type_start(0) {
            // `struct` always begins a decl in statement position; scalar
            // keywords too. An identifier that merely *could* be a named
            // type needs the two-identifier check below.
            if let TokenKind::Ident(s) = self.peek_kind() {
                if ScalarType::from_keyword(s).is_some()
                    || s == "struct"
                    || s == "dim3"
                    || s == "unsigned"
                {
                    return true;
                }
                if s == "Kokkos" || s == "View" {
                    // Kokkos::View<...> name  — a decl; Kokkos::parallel_for(...) — not.
                    return self.view_type_ahead();
                }
            }
        }
        // `Name ident ...` or `Name* ident ...` → a declaration with a named type.
        if matches!(self.peek_kind(), TokenKind::Ident(_)) {
            match self.peek_ahead(1) {
                TokenKind::Ident(_) => return true,
                TokenKind::Star => {
                    let mut n = 1;
                    while matches!(self.peek_ahead(n), TokenKind::Star) {
                        n += 1;
                    }
                    if matches!(self.peek_ahead(n), TokenKind::Ident(_)) {
                        // `T* name =` / `T* name;` / `T* name[` / `T* name(`...
                        return matches!(
                            self.peek_ahead(n + 1),
                            TokenKind::Eq
                                | TokenKind::Semi
                                | TokenKind::Comma
                                | TokenKind::LBracket
                        );
                    }
                }
                _ => {}
            }
        }
        false
    }

    fn view_type_ahead(&self) -> bool {
        // `View<` or `Kokkos::View<`.
        if self.at_ident("View") {
            return matches!(self.peek_ahead(1), TokenKind::Lt);
        }
        self.at_ident("Kokkos")
            && matches!(self.peek_ahead(1), TokenKind::ColonColon)
            && self.ident_ahead(2) == Some("View")
            && matches!(self.peek_ahead(3), TokenKind::Lt)
    }

    fn parse_decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        let is_static = self.eat_ident("static");
        let ty = self.parse_type()?;
        let mut decls = Vec::new();
        loop {
            let (name, _) = self.expect_ident()?;
            let decl = self.finish_var_decl(ty.clone(), name, is_static)?;
            decls.push(decl);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::Semi)?;
        if decls.len() == 1 {
            Ok(Stmt::new(StmtKind::Decl(decls.pop().unwrap()), start))
        } else {
            // Multi-declarator statements become a flat block of decls.
            let stmts = decls
                .into_iter()
                .map(|d| Stmt::new(StmtKind::Decl(d), start))
                .collect();
            Ok(Stmt::new(
                StmtKind::Block(Block { stmts, span: start }),
                start,
            ))
        }
    }

    fn finish_var_decl(
        &mut self,
        ty: Type,
        name: String,
        is_static: bool,
    ) -> Result<VarDecl, ParseError> {
        let mut array_dims = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            array_dims.push(self.parse_expr()?);
            self.expect(&TokenKind::RBracket)?;
        }
        let init = if self.eat(&TokenKind::Eq) {
            if self.at(&TokenKind::LBrace) {
                self.bump();
                let mut elems = Vec::new();
                while !self.at(&TokenKind::RBrace) {
                    elems.push(self.parse_expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RBrace)?;
                Some(Init::List(elems))
            } else {
                Some(Init::Expr(self.parse_expr()?))
            }
        } else if self.at(&TokenKind::LParen) {
            // Constructor syntax: `dim3 grid(gx, gy);`, `View<double*> v("v", n);`
            self.bump();
            let mut args = Vec::new();
            while !self.at(&TokenKind::RParen) {
                args.push(self.parse_expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            Some(Init::Ctor(args))
        } else {
            None
        };
        Ok(VarDecl {
            name,
            ty,
            array_dims,
            init,
            is_static,
        })
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        self.bump(); // if
        self.expect(&TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        let then = Box::new(self.parse_stmt()?);
        let els = if self.eat_ident("else") {
            Some(Box::new(self.parse_stmt()?))
        } else {
            None
        };
        Ok(Stmt::new(StmtKind::If { cond, then, els }, start))
    }

    fn parse_while(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        self.bump(); // while
        self.expect(&TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        let body = Box::new(self.parse_stmt()?);
        Ok(Stmt::new(StmtKind::While { cond, body }, start))
    }

    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        self.bump(); // for
        self.expect(&TokenKind::LParen)?;
        let init = if self.at(&TokenKind::Semi) {
            self.bump();
            None
        } else if self.stmt_starts_decl() {
            Some(Box::new(self.parse_decl_stmt()?))
        } else {
            let e = self.parse_expr()?;
            self.expect(&TokenKind::Semi)?;
            Some(Box::new(Stmt::expr(e)))
        };
        let cond = if self.at(&TokenKind::Semi) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect(&TokenKind::Semi)?;
        let step = if self.at(&TokenKind::RParen) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect(&TokenKind::RParen)?;
        let body = Box::new(self.parse_stmt()?);
        Ok(Stmt::new(
            StmtKind::For {
                init,
                cond,
                step,
                body,
            },
            start,
        ))
    }

    // -- expressions ---------------------------------------------------------

    pub(crate) fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_assign()
    }

    fn parse_assign(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_ternary()?;
        let op = match self.peek_kind() {
            TokenKind::Eq => None,
            TokenKind::PlusEq => Some(BinOp::Add),
            TokenKind::MinusEq => Some(BinOp::Sub),
            TokenKind::StarEq => Some(BinOp::Mul),
            TokenKind::SlashEq => Some(BinOp::Div),
            TokenKind::PercentEq => Some(BinOp::Rem),
            TokenKind::AmpEq => Some(BinOp::BitAnd),
            TokenKind::PipeEq => Some(BinOp::BitOr),
            TokenKind::CaretEq => Some(BinOp::BitXor),
            TokenKind::ShlEq => Some(BinOp::Shl),
            TokenKind::ShrEq => Some(BinOp::Shr),
            _ => return Ok(lhs),
        };
        let span = lhs.span;
        self.bump();
        let rhs = self.parse_assign()?;
        Ok(Expr::new(
            ExprKind::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span,
        ))
    }

    fn parse_ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.parse_binary(0)?;
        if self.eat(&TokenKind::Question) {
            let then = self.parse_expr()?;
            self.expect(&TokenKind::Colon)?;
            let els = self.parse_ternary()?;
            let span = cond.span;
            Ok(Expr::new(
                ExprKind::Ternary {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    els: Box::new(els),
                },
                span,
            ))
        } else {
            Ok(cond)
        }
    }

    fn binop_at(&self) -> Option<(BinOp, u8)> {
        let (op, prec) = match self.peek_kind() {
            TokenKind::PipePipe => (BinOp::Or, 1),
            TokenKind::AmpAmp => (BinOp::And, 2),
            TokenKind::Pipe => (BinOp::BitOr, 3),
            TokenKind::Caret => (BinOp::BitXor, 4),
            TokenKind::Amp => (BinOp::BitAnd, 5),
            TokenKind::EqEq => (BinOp::Eq, 6),
            TokenKind::Ne => (BinOp::Ne, 6),
            TokenKind::Lt => (BinOp::Lt, 7),
            TokenKind::Gt => (BinOp::Gt, 7),
            TokenKind::Le => (BinOp::Le, 7),
            TokenKind::Ge => (BinOp::Ge, 7),
            TokenKind::Shl => (BinOp::Shl, 8),
            TokenKind::Shr => (BinOp::Shr, 8),
            TokenKind::Plus => (BinOp::Add, 9),
            TokenKind::Minus => (BinOp::Sub, 9),
            TokenKind::Star => (BinOp::Mul, 10),
            TokenKind::Slash => (BinOp::Div, 10),
            TokenKind::Percent => (BinOp::Rem, 10),
            _ => return None,
        };
        Some((op, prec))
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = self.binop_at() {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        let op = match self.peek_kind() {
            TokenKind::Minus => Some(UnaryOp::Neg),
            TokenKind::Bang => Some(UnaryOp::Not),
            TokenKind::Tilde => Some(UnaryOp::BitNot),
            TokenKind::Star => Some(UnaryOp::Deref),
            TokenKind::Amp => Some(UnaryOp::AddrOf),
            TokenKind::PlusPlus => Some(UnaryOp::PreInc),
            TokenKind::MinusMinus => Some(UnaryOp::PreDec),
            TokenKind::Plus => {
                // Unary plus: just skip it.
                self.bump();
                return self.parse_unary();
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.parse_unary()?;
            return Ok(Expr::new(
                ExprKind::Unary {
                    op,
                    expr: Box::new(expr),
                },
                start,
            ));
        }
        // sizeof
        if self.at_ident("sizeof") {
            self.bump();
            self.expect(&TokenKind::LParen)?;
            if self.is_type_start(0) && !self.sizeof_arg_is_expr() {
                let ty = self.parse_type()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::new(ExprKind::SizeOfType(ty), start));
            }
            let e = self.parse_expr()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::new(ExprKind::SizeOfExpr(Box::new(e)), start));
        }
        // Cast: `(type) unary` — only when the parenthesised text is clearly a type.
        if self.at(&TokenKind::LParen) && self.cast_ahead() {
            self.bump();
            let ty = self.parse_type()?;
            self.expect(&TokenKind::RParen)?;
            let expr = self.parse_unary()?;
            return Ok(Expr::new(
                ExprKind::Cast {
                    ty,
                    expr: Box::new(expr),
                },
                start,
            ));
        }
        self.parse_postfix()
    }

    /// Inside `sizeof(...)`: treat `sizeof(N)` where N could be a named type
    /// as an expression unless it is an unambiguous type keyword.
    fn sizeof_arg_is_expr(&self) -> bool {
        if let TokenKind::Ident(s) = self.peek_kind() {
            let unambiguous = ScalarType::from_keyword(s).is_some()
                || s == "struct"
                || s == "const"
                || s == "unsigned"
                || s == "dim3";
            if !unambiguous {
                // `sizeof(Name)` with a following `)` stays ambiguous; MiniHPC
                // resolves it as a *type* only if it starts with an uppercase
                // letter (our typedef convention), else an expression.
                return !s.chars().next().is_some_and(|c| c.is_ascii_uppercase());
            }
            false
        } else {
            true
        }
    }

    fn cast_ahead(&self) -> bool {
        // `( const? <scalar-kw|struct|dim3|unsigned> ... * ... )` followed by
        // an expression-start token.
        let mut n = 1;
        if self.ident_ahead(n) == Some("const") {
            n += 1;
        }
        let (is_kw_type, is_named) = match self.ident_ahead(n) {
            Some(s) => {
                let kw = ScalarType::from_keyword(s).is_some()
                    || s == "struct"
                    || s == "dim3"
                    || s == "unsigned";
                // A named (typedef'd) type cast, `(State*)p`, is recognised
                // only in pointer form — `(name)` alone is indistinguishable
                // from a parenthesised expression.
                let named = !kw
                    && s.chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
                (kw, named)
            }
            None => (false, false),
        };
        if !is_kw_type && !is_named {
            return false;
        }
        if self.ident_ahead(n) == Some("struct") || self.ident_ahead(n) == Some("unsigned") {
            n += 1; // tag / width name
        }
        n += 1;
        let mut stars = 0;
        while matches!(self.peek_ahead(n), TokenKind::Star) {
            n += 1;
            stars += 1;
        }
        if is_named && stars == 0 {
            return false;
        }
        if !matches!(self.peek_ahead(n), TokenKind::RParen) {
            return false;
        }
        // Lookahead past `)`: cast must be followed by something that can
        // begin a unary expression.
        matches!(
            self.peek_ahead(n + 1),
            TokenKind::Ident(_)
                | TokenKind::Int(_)
                | TokenKind::Float(_)
                | TokenKind::Str(_)
                | TokenKind::Char(_)
                | TokenKind::LParen
                | TokenKind::Minus
                | TokenKind::Bang
                | TokenKind::Tilde
                | TokenKind::Star
                | TokenKind::Amp
        )
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_primary()?;
        loop {
            match self.peek_kind() {
                TokenKind::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    while !self.at(&TokenKind::RParen) {
                        args.push(self.parse_expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    let span = e.span;
                    e = Expr::new(
                        ExprKind::Call {
                            callee: Box::new(e),
                            args,
                        },
                        span,
                    );
                }
                TokenKind::LaunchOpen => {
                    // Kernel launch: callee must be a plain identifier.
                    let kernel = match &e.kind {
                        ExprKind::Ident(name) => name.clone(),
                        _ => return self.error("kernel launch `<<<...>>>` requires a kernel name"),
                    };
                    self.bump();
                    let grid = self.parse_expr()?;
                    self.expect(&TokenKind::Comma)?;
                    let block = self.parse_expr()?;
                    self.expect(&TokenKind::LaunchClose)?;
                    self.expect(&TokenKind::LParen)?;
                    let mut args = Vec::new();
                    while !self.at(&TokenKind::RParen) {
                        args.push(self.parse_expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    let span = e.span;
                    e = Expr::new(
                        ExprKind::KernelLaunch {
                            kernel,
                            grid: Box::new(grid),
                            block: Box::new(block),
                            args,
                        },
                        span,
                    );
                }
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    self.expect(&TokenKind::RBracket)?;
                    let span = e.span;
                    e = Expr::new(
                        ExprKind::Index {
                            base: Box::new(e),
                            index: Box::new(idx),
                        },
                        span,
                    );
                }
                TokenKind::Dot | TokenKind::Arrow => {
                    let arrow = matches!(self.peek_kind(), TokenKind::Arrow);
                    self.bump();
                    let (member, _) = self.expect_ident()?;
                    let span = e.span;
                    e = Expr::new(
                        ExprKind::Member {
                            base: Box::new(e),
                            member,
                            arrow,
                        },
                        span,
                    );
                }
                TokenKind::PlusPlus => {
                    self.bump();
                    let span = e.span;
                    e = Expr::new(
                        ExprKind::Unary {
                            op: UnaryOp::PostInc,
                            expr: Box::new(e),
                        },
                        span,
                    );
                }
                TokenKind::MinusMinus => {
                    self.bump();
                    let span = e.span;
                    e = Expr::new(
                        ExprKind::Unary {
                            op: UnaryOp::PostDec,
                            expr: Box::new(e),
                        },
                        span,
                    );
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        match self.peek_kind() {
            TokenKind::Int(_) | TokenKind::Float(_) | TokenKind::Str(_) | TokenKind::Char(_) => {
                let kind = match self.bump().kind {
                    TokenKind::Int(v) => ExprKind::IntLit(v),
                    TokenKind::Float(v) => ExprKind::FloatLit(v),
                    TokenKind::Str(s) => ExprKind::StrLit(s),
                    TokenKind::Char(c) => ExprKind::CharLit(c),
                    other => unreachable!("peeked a literal, consumed {}", other.describe()),
                };
                Ok(Expr::new(kind, start))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::new(ExprKind::Paren(Box::new(e)), start))
            }
            TokenKind::LBracket => self.parse_lambda(start),
            TokenKind::Ident(name) => {
                match name.as_str() {
                    "true" => {
                        self.bump();
                        return Ok(Expr::new(ExprKind::BoolLit(true), start));
                    }
                    "false" => {
                        self.bump();
                        return Ok(Expr::new(ExprKind::BoolLit(false), start));
                    }
                    "KOKKOS_LAMBDA" => {
                        self.bump();
                        return self.parse_lambda_params_body(CaptureMode::KokkosLambda, start);
                    }
                    _ => {}
                }
                let name = self.bump_ident();
                // `::`-separated path.
                if self.at(&TokenKind::ColonColon) {
                    let mut segments = vec![name];
                    while self.eat(&TokenKind::ColonColon) {
                        let (seg, _) = self.expect_ident()?;
                        segments.push(seg);
                    }
                    // `Kokkos::RangePolicy<...>`-style template args in
                    // expression position are folded into the last segment.
                    if self.at(&TokenKind::Lt) && self.template_args_ahead() {
                        let text = self.consume_template_args()?;
                        let last = segments.last_mut().unwrap();
                        last.push_str(&text);
                    }
                    return Ok(Expr::new(ExprKind::Path(segments), start));
                }
                Ok(Expr::new(ExprKind::Ident(name), start))
            }
            other => self.error(format!("expected expression, found {}", other.describe())),
        }
    }

    /// Heuristic: `<` begins template arguments (rather than a comparison) if
    /// a matching `>` appears before any `;`, `{`, or EOF and the contents
    /// look type-ish. Used only for Kokkos policy paths.
    fn template_args_ahead(&self) -> bool {
        let mut n = 1;
        let mut depth = 1;
        loop {
            match self.peek_ahead(n) {
                TokenKind::Lt => depth += 1,
                TokenKind::Gt => {
                    depth -= 1;
                    if depth == 0 {
                        return matches!(self.peek_ahead(n + 1), TokenKind::LParen);
                    }
                }
                TokenKind::Shr => {
                    depth -= 2;
                    if depth <= 0 {
                        return matches!(self.peek_ahead(n + 1), TokenKind::LParen);
                    }
                }
                TokenKind::Semi | TokenKind::LBrace | TokenKind::Eof => return false,
                _ => {}
            }
            n += 1;
            if n > 32 {
                return false;
            }
        }
    }

    fn consume_template_args(&mut self) -> Result<String, ParseError> {
        let mut depth = 0i32;
        let mut text = String::new();
        loop {
            match self.peek_kind() {
                TokenKind::Lt => {
                    depth += 1;
                    text.push('<');
                    self.bump();
                }
                TokenKind::Gt => {
                    depth -= 1;
                    text.push('>');
                    self.bump();
                    if depth == 0 {
                        return Ok(text);
                    }
                }
                TokenKind::Shr => {
                    depth -= 2;
                    text.push_str(">>");
                    self.bump();
                    if depth <= 0 {
                        return Ok(text);
                    }
                }
                TokenKind::Eof => return self.error("unterminated template argument list"),
                other => {
                    let sym = other.symbol();
                    if sym.is_empty() {
                        match other {
                            TokenKind::Ident(s) => text.push_str(s),
                            TokenKind::Int(v) => text.push_str(&v.to_string()),
                            _ => return self.error("unexpected token in template arguments"),
                        }
                    } else {
                        text.push_str(sym);
                    }
                    self.bump();
                }
            }
        }
    }

    fn parse_lambda(&mut self, start: Span) -> Result<Expr, ParseError> {
        self.expect(&TokenKind::LBracket)?;
        let capture = if self.eat(&TokenKind::Eq) {
            CaptureMode::ByValue
        } else if self.eat(&TokenKind::Amp) {
            CaptureMode::ByRef
        } else if self.at(&TokenKind::RBracket) {
            CaptureMode::ByValue
        } else {
            return self.error("lambda capture must be `[=]`, `[&]`, or `[]`");
        };
        self.expect(&TokenKind::RBracket)?;
        self.parse_lambda_params_body(capture, start)
    }

    fn parse_lambda_params_body(
        &mut self,
        capture: CaptureMode,
        start: Span,
    ) -> Result<Expr, ParseError> {
        let params = self.parse_params()?;
        let body = self.parse_block()?;
        Ok(Expr::new(
            ExprKind::Lambda {
                capture,
                params,
                body,
            },
            start,
        ))
    }

    // -- OpenMP directives ---------------------------------------------------

    fn parse_omp_body(&mut self, span: Span) -> Result<OmpDirective, ParseError> {
        let mut constructs = Vec::new();
        while let Some(name) = self.ident_ahead(0) {
            let construct = match name {
                "parallel" => OmpConstruct::Parallel,
                "for" => OmpConstruct::For,
                "simd" => OmpConstruct::Simd,
                "target" => {
                    self.bump();
                    if self.at_ident("data") {
                        self.bump();
                        constructs.push(OmpConstruct::TargetData);
                        continue;
                    }
                    if self.at_ident("update") {
                        self.bump();
                        constructs.push(OmpConstruct::TargetUpdate);
                        continue;
                    }
                    constructs.push(OmpConstruct::Target);
                    continue;
                }
                "teams" => OmpConstruct::Teams,
                "distribute" => OmpConstruct::Distribute,
                "barrier" => OmpConstruct::Barrier,
                "critical" => OmpConstruct::Critical,
                "atomic" => OmpConstruct::Atomic,
                "single" => OmpConstruct::Single,
                "master" => OmpConstruct::Master,
                _ => break,
            };
            self.bump();
            constructs.push(construct);
        }
        if constructs.is_empty() {
            return Err(ParseError::new(
                "OpenMP directive has no recognised construct",
                span,
            ));
        }
        let mut clauses = Vec::new();
        while !matches!(self.peek_kind(), TokenKind::Eof) {
            clauses.push(self.parse_omp_clause()?);
            // Optional comma separators between clauses.
            self.eat(&TokenKind::Comma);
        }
        Ok(OmpDirective {
            constructs,
            clauses,
            span,
        })
    }

    fn parse_omp_clause(&mut self) -> Result<OmpClause, ParseError> {
        let (name, sp) = self.expect_ident()?;
        let clause = match name.as_str() {
            "num_threads" => {
                self.expect(&TokenKind::LParen)?;
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                OmpClause::NumThreads(e)
            }
            "num_teams" => {
                self.expect(&TokenKind::LParen)?;
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                OmpClause::NumTeams(e)
            }
            "thread_limit" => {
                self.expect(&TokenKind::LParen)?;
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                OmpClause::ThreadLimit(e)
            }
            "collapse" => {
                self.expect(&TokenKind::LParen)?;
                let n = match self.peek_kind() {
                    TokenKind::Int(v) => {
                        let v = *v;
                        self.bump();
                        v
                    }
                    _ => {
                        return Err(ParseError::new(
                            "collapse clause requires an integer literal",
                            self.span(),
                        ))
                    }
                };
                self.expect(&TokenKind::RParen)?;
                if n < 1 {
                    return Err(ParseError::new("collapse argument must be >= 1", sp));
                }
                OmpClause::Collapse(n)
            }
            "reduction" => {
                self.expect(&TokenKind::LParen)?;
                let op_sym = match self.peek_kind() {
                    TokenKind::Ident(_) => self.bump_ident(),
                    op @ (TokenKind::Plus
                    | TokenKind::Star
                    | TokenKind::Caret
                    | TokenKind::Amp
                    | TokenKind::Pipe) => {
                        let symbol = op.symbol().to_string();
                        self.bump();
                        symbol
                    }
                    other => {
                        return Err(ParseError::new(
                            format!("invalid reduction operator {}", other.describe()),
                            self.span(),
                        ))
                    }
                };
                let op = ReductionOp::from_symbol(&op_sym).ok_or_else(|| {
                    ParseError::new(format!("invalid reduction operator `{op_sym}`"), sp)
                })?;
                self.expect(&TokenKind::Colon)?;
                let vars = self.parse_ident_list()?;
                self.expect(&TokenKind::RParen)?;
                OmpClause::Reduction { op, vars }
            }
            "map" => {
                self.expect(&TokenKind::LParen)?;
                // Optional map kind.
                let mut kind = MapKind::ToFrom;
                if let Some(k) = self.ident_ahead(0) {
                    let candidate = match k {
                        "to" => Some(MapKind::To),
                        "from" => Some(MapKind::From),
                        "tofrom" => Some(MapKind::ToFrom),
                        "alloc" => Some(MapKind::Alloc),
                        _ => None,
                    };
                    if let Some(c) = candidate {
                        if matches!(self.peek_ahead(1), TokenKind::Colon) {
                            self.bump();
                            self.bump();
                            kind = c;
                        }
                    }
                }
                let mut sections = Vec::new();
                loop {
                    sections.push(self.parse_array_section()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
                OmpClause::Map { kind, sections }
            }
            "private" => OmpClause::Private(self.parse_paren_ident_list()?),
            "firstprivate" => OmpClause::FirstPrivate(self.parse_paren_ident_list()?),
            "shared" => OmpClause::Shared(self.parse_paren_ident_list()?),
            "schedule" => {
                self.expect(&TokenKind::LParen)?;
                let (kind, _) = self.expect_ident()?;
                let chunk = if self.eat(&TokenKind::Comma) {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                self.expect(&TokenKind::RParen)?;
                OmpClause::Schedule { kind, chunk }
            }
            "default" => {
                self.expect(&TokenKind::LParen)?;
                let (mode, _) = self.expect_ident()?;
                self.expect(&TokenKind::RParen)?;
                OmpClause::Default(mode)
            }
            "if" => {
                self.expect(&TokenKind::LParen)?;
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                OmpClause::If(e)
            }
            "device" => {
                self.expect(&TokenKind::LParen)?;
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                OmpClause::Device(e)
            }
            _ => {
                // Unknown clause: consume a balanced parenthesised argument
                // list if present, keep the raw text (lenient like clang -W).
                let mut text = String::new();
                if self.at(&TokenKind::LParen) {
                    let mut depth = 0;
                    loop {
                        match self.peek_kind() {
                            TokenKind::LParen => depth += 1,
                            TokenKind::RParen => {
                                depth -= 1;
                                if depth == 0 {
                                    text.push(')');
                                    self.bump();
                                    break;
                                }
                            }
                            TokenKind::Eof => {
                                return Err(ParseError::new(
                                    format!("unterminated `{name}` clause"),
                                    sp,
                                ))
                            }
                            _ => {}
                        }
                        let t = self.bump();
                        let sym = t.kind.symbol();
                        if !sym.is_empty() {
                            text.push_str(sym);
                        } else {
                            match &t.kind {
                                TokenKind::Ident(s) => {
                                    if !text.is_empty() && !text.ends_with('(') {
                                        text.push(' ');
                                    }
                                    text.push_str(s);
                                }
                                TokenKind::Int(v) => text.push_str(&v.to_string()),
                                TokenKind::Float(v) => text.push_str(&v.to_string()),
                                _ => {}
                            }
                        }
                    }
                }
                OmpClause::Unknown { name, text }
            }
        };
        Ok(clause)
    }

    fn parse_ident_list(&mut self) -> Result<Vec<String>, ParseError> {
        let mut names = Vec::new();
        loop {
            let (n, _) = self.expect_ident()?;
            names.push(n);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(names)
    }

    fn parse_paren_ident_list(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let names = self.parse_ident_list()?;
        self.expect(&TokenKind::RParen)?;
        Ok(names)
    }

    fn parse_array_section(&mut self) -> Result<ArraySection, ParseError> {
        let (var, _) = self.expect_ident()?;
        let mut ranges = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            let lo = self.parse_expr()?;
            self.expect(&TokenKind::Colon)?;
            let len = self.parse_expr()?;
            self.expect(&TokenKind::RBracket)?;
            ranges.push((lo, len));
        }
        Ok(ArraySection { var, ranges })
    }
}

/// Reconstruct approximate text from a token slice (used for preserved
/// `#define` bodies).
pub(crate) fn tokens_to_text(tokens: &[Token]) -> String {
    let mut out = String::new();
    for t in tokens {
        let sym = t.kind.symbol();
        if !sym.is_empty() {
            out.push_str(sym);
            continue;
        }
        match &t.kind {
            TokenKind::Ident(s) => {
                if !out.is_empty() && out.chars().last().is_some_and(|c| c.is_alphanumeric()) {
                    out.push(' ');
                }
                out.push_str(s);
            }
            TokenKind::Int(v) => {
                if !out.is_empty() && out.chars().last().is_some_and(|c| c.is_alphanumeric()) {
                    out.push(' ');
                }
                out.push_str(&v.to_string());
            }
            TokenKind::Float(v) => out.push_str(&format!("{v:?}")),
            TokenKind::Str(s) => out.push_str(&format!("{s:?}")),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_function() {
        let sf = parse_file("int add(int a, int b) { return a + b; }").unwrap();
        let f = sf.find_function("add").unwrap();
        assert_eq!(f.params.len(), 2);
        assert!(f.is_definition());
    }

    #[test]
    fn parse_cuda_kernel_and_launch() {
        let src = r#"
__global__ void k(const int* in, int* out, size_t n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { out[i] = in[i] ^ 1; }
}
int main() {
    int* d_in;
    cudaMalloc(&d_in, 100 * sizeof(int));
    k<<<4, 32>>>(d_in, d_in, 100);
    return 0;
}
"#;
        let sf = parse_file(src).unwrap();
        let k = sf.find_function("k").unwrap();
        assert!(k.quals.cuda_global);
        assert_eq!(k.params[0].ty, Type::ptr(Type::Const(Box::new(Type::INT))));
        let main = sf.find_function("main").unwrap();
        let body = main.body.as_ref().unwrap();
        let has_launch = body.stmts.iter().any(|s| {
            matches!(&s.kind, StmtKind::Expr(e) if matches!(&e.kind, ExprKind::KernelLaunch { kernel, .. } if kernel == "k"))
        });
        assert!(has_launch);
    }

    #[test]
    fn parse_omp_offload_pragma() {
        let src = r#"
void f(int* a, int n) {
    #pragma omp target teams distribute parallel for map(tofrom: a[0:n]) collapse(1)
    for (int i = 0; i < n; i++) { a[i] = i; }
}
"#;
        let sf = parse_file(src).unwrap();
        let f = sf.find_function("f").unwrap();
        let body = f.body.as_ref().unwrap();
        match &body.stmts[0].kind {
            StmtKind::Omp { directive, body } => {
                assert!(directive.targets_device());
                assert!(directive.has(OmpConstruct::Parallel));
                assert_eq!(directive.collapse(), 1);
                assert!(body.is_some());
            }
            other => panic!("expected omp stmt, got {other:?}"),
        }
    }

    #[test]
    fn parse_omp_reduction() {
        let s = parse_stmt_str(
            "#pragma omp parallel for reduction(+: total)\nfor (int i = 0; i < n; i++) total += i;",
        )
        .unwrap();
        match s.kind {
            StmtKind::Omp { directive, .. } => {
                let (op, vars) = directive.reductions().next().unwrap();
                assert_eq!(*op, ReductionOp::Add);
                assert_eq!(vars, &vec!["total".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_barrier_is_standalone() {
        let src = "void f() { \n#pragma omp barrier\n int x = 1; }";
        let sf = parse_file(src).unwrap();
        let f = sf.find_function("f").unwrap();
        let stmts = &f.body.as_ref().unwrap().stmts;
        assert_eq!(stmts.len(), 2, "barrier must not swallow the next stmt");
    }

    #[test]
    fn parse_kokkos_view_and_lambda() {
        let src = r#"
int main() {
    Kokkos::View<double*> d("d", 100);
    Kokkos::parallel_for(100, KOKKOS_LAMBDA(int i) { d(i) = 2.0 * i; });
    Kokkos::fence();
    return 0;
}
"#;
        let sf = parse_file(src).unwrap();
        let main = sf.find_function("main").unwrap();
        let stmts = &main.body.as_ref().unwrap().stmts;
        match &stmts[0].kind {
            StmtKind::Decl(d) => {
                assert_eq!(
                    d.ty,
                    Type::View {
                        elem: ScalarType::Double,
                        rank: 1
                    }
                );
                assert!(matches!(d.init, Some(Init::Ctor(_))));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_kokkos_policy_template_path() {
        let e = parse_expr_str("Kokkos::RangePolicy<>(0, n)").unwrap();
        match e.kind {
            ExprKind::Call { callee, .. } => match callee.kind {
                ExprKind::Path(segs) => assert_eq!(segs[0], "Kokkos"),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_typedef_struct() {
        let src = "typedef struct { double energy; int mat; } Lookup;\nLookup make(void);";
        let sf = parse_file(src).unwrap();
        match &sf.items[0].kind {
            ItemKind::Struct(s) => {
                assert_eq!(s.name, "Lookup");
                assert!(s.is_typedef);
                assert_eq!(s.fields.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_named_type_decl_statement() {
        let s = parse_stmt_str("SimulationData* data = init(n);").unwrap();
        match s.kind {
            StmtKind::Decl(d) => {
                assert_eq!(d.ty, Type::ptr(Type::Named("SimulationData".into())));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multiplication_not_misparsed_as_decl() {
        let s = parse_stmt_str("total = a * b;").unwrap();
        assert!(matches!(s.kind, StmtKind::Expr(_)));
    }

    #[test]
    fn parse_cast_and_sizeof() {
        let e = parse_expr_str("(double*)malloc(n * sizeof(double))").unwrap();
        match e.kind {
            ExprKind::Cast { ty, .. } => assert_eq!(ty, Type::ptr(Type::DOUBLE)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_ternary_and_precedence() {
        let e = parse_expr_str("a + b * c == d ? 1 : 0").unwrap();
        assert!(matches!(e.kind, ExprKind::Ternary { .. }));
        // 1 + 2 * 3 parses as 1 + (2*3)
        let e = parse_expr_str("1 + 2 * 3").unwrap();
        match e.kind {
            ExprKind::Binary { op, rhs, .. } => {
                assert_eq!(op, BinOp::Add);
                assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_for_loop_with_decl() {
        let s = parse_stmt_str("for (int i = 0; i < n; i++) { x += i; }").unwrap();
        match s.kind {
            StmtKind::For {
                init, cond, step, ..
            } => {
                assert!(init.is_some());
                assert!(cond.is_some());
                assert!(step.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_error_reports_span() {
        let err = parse_file("int f() { return 1 + ; }").unwrap_err();
        assert!(err.message.contains("expected expression"));
        assert!(err.span.start > 0);
    }

    #[test]
    fn missing_brace_errors() {
        assert!(parse_file("void f() { int x = 1; ").is_err());
    }

    #[test]
    fn omp_bad_reduction_operator_errors() {
        let toks = lexer::lex("#pragma omp parallel for reduction(@: x)\nint y;");
        // `@` fails at lex time already.
        assert!(toks.is_err());
        let err = parse_file(
            "void f() {\n#pragma omp parallel for reduction(%: x)\nfor(int i=0;i<1;i++){}\n}",
        )
        .unwrap_err();
        assert!(err.in_omp_directive);
    }

    #[test]
    fn unknown_omp_clause_is_lenient() {
        // Paper Listing 4: `num_threads` on teams distribute compiles (it is
        // semantically wrong but syntactically tolerated by real compilers).
        let src = "void f(int n) {\n#pragma omp teams distribute collapse(2) num_threads(64)\nfor (int i = 0; i < n; i++) {}\n}";
        assert!(parse_file(src).is_ok());
    }

    #[test]
    fn dim3_ctor_decl() {
        let s = parse_stmt_str("dim3 grid(gx, gy);").unwrap();
        match s.kind {
            StmtKind::Decl(d) => {
                assert_eq!(d.ty, Type::Dim3);
                assert!(matches!(d.init, Some(Init::Ctor(ref a)) if a.len() == 2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_declarator_splits() {
        let s = parse_stmt_str("int x = 1, y = 2;").unwrap();
        match s.kind {
            StmtKind::Block(b) => assert_eq!(b.stmts.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn postfix_chains() {
        let e = parse_expr_str("data->grid[i * n + j].val++").unwrap();
        assert!(matches!(
            e.kind,
            ExprKind::Unary {
                op: UnaryOp::PostInc,
                ..
            }
        ));
    }

    #[test]
    fn array_decl_with_dims() {
        let s = parse_stmt_str("double a[10][20];").unwrap();
        match s.kind {
            StmtKind::Decl(d) => assert_eq!(d.array_dims.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn define_expansion_in_parse() {
        let sf = parse_file("#define N 256\nint arr[N];\n").unwrap();
        match &sf.items.last().unwrap().kind {
            ItemKind::Global(d) => {
                assert_eq!(d.array_dims[0].kind, ExprKind::IntLit(256));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn map_clause_multiple_sections() {
        let s = parse_stmt_str(
            "#pragma omp target data map(to: input[0:n*n]) map(from: output[0:n*n])\n{ int x = 1; }",
        )
        .unwrap();
        match s.kind {
            StmtKind::Omp { directive, body } => {
                assert_eq!(directive.map_clauses().count(), 2);
                assert!(body.is_some());
            }
            other => panic!("{other:?}"),
        }
    }
}

//! Lexer for MiniHPC.
//!
//! The lexer is dialect-agnostic: CUDA qualifiers (`__global__`),
//! OpenMP pragmas, and Kokkos identifiers all lex as ordinary identifiers or
//! structured preprocessor tokens; interpretation happens in the parser and
//! semantic analysis where the selected execution model is known.

use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::fmt;

/// A lexical error. These map to the paper's "Code Syntax Error" category.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    pub message: String,
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for LexError {}

/// Lex `src` fully, returning tokens (terminated by `Eof`) or the first error.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    Lexer::new(src).run()
}

/// Lex a fragment that may not contain preprocessor lines (used to sub-lex
/// pragma bodies and macro bodies).
pub fn lex_fragment(src: &str, base_offset: u32) -> Result<Vec<Token>, LexError> {
    let mut lx = Lexer::new(src);
    lx.base = base_offset;
    lx.allow_preprocessor = false;
    let mut toks = lx.run()?;
    // Drop the trailing Eof for fragments: callers concatenate them.
    toks.pop();
    Ok(toks)
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    base: u32,
    allow_preprocessor: bool,
    at_line_start: bool,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            base: 0,
            allow_preprocessor: true,
            at_line_start: true,
        }
    }

    fn run(&mut self) -> Result<Vec<Token>, LexError> {
        // The suite and generated code average about 3.8 bytes a token, so
        // one allocation holds most files' streams whole.
        let mut out = Vec::with_capacity(self.bytes.len() / 3 + 1);
        loop {
            let tok = self.next_token()?;
            let eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if eof {
                break;
            }
        }
        Ok(out)
    }

    fn peek(&self) -> u8 {
        *self.bytes.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.bytes.get(self.pos + 1).unwrap_or(&0)
    }

    fn peek3(&self) -> u8 {
        *self.bytes.get(self.pos + 2).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn span_from(&self, start: usize) -> Span {
        Span::new(self.base + start as u32, self.base + self.pos as u32)
    }

    fn error(&self, start: usize, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            span: self.span_from(start),
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                b'\n' => {
                    self.at_line_start = true;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.bytes.len() && self.peek() != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        if self.pos >= self.bytes.len() {
                            return Err(self.error(start, "unterminated block comment"));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.pos += 2;
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, LexError> {
        self.skip_trivia()?;
        let start = self.pos;
        if self.pos >= self.bytes.len() {
            return Ok(Token::new(TokenKind::Eof, self.span_from(start)));
        }
        let b = self.peek();

        if b == b'#' {
            if !self.allow_preprocessor {
                return Err(self.error(start, "`#` directive not allowed here"));
            }
            let was_line_start = self.at_line_start;
            self.at_line_start = false;
            if !was_line_start {
                return Err(self.error(start, "stray `#` in program"));
            }
            return self.lex_directive(start);
        }
        self.at_line_start = false;

        if b.is_ascii_alphabetic() || b == b'_' {
            return Ok(self.lex_ident(start));
        }
        if b.is_ascii_digit() || (b == b'.' && self.peek2().is_ascii_digit()) {
            return self.lex_number(start);
        }
        if b == b'"' {
            return self.lex_string(start);
        }
        if b == b'\'' {
            return self.lex_char(start);
        }
        self.lex_punct(start)
    }

    fn lex_ident(&mut self, start: usize) -> Token {
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        Token::new(TokenKind::Ident(text.to_string()), self.span_from(start))
    }

    fn lex_number(&mut self, start: usize) -> Result<Token, LexError> {
        // Hexadecimal.
        if self.peek() == b'0' && (self.peek2() == b'x' || self.peek2() == b'X') {
            self.pos += 2;
            let digits_start = self.pos;
            while self.peek().is_ascii_hexdigit() {
                self.pos += 1;
            }
            if self.pos == digits_start {
                return Err(self.error(start, "missing digits in hexadecimal literal"));
            }
            let text = &self.src[digits_start..self.pos];
            self.eat_int_suffix();
            // Hex literals up to 64 bits wrap into i64 (C unsigned-long
            // semantics — needed for splitmix/xorshift RNG constants).
            let value = u64::from_str_radix(text, 16)
                .map_err(|_| self.error(start, "hexadecimal literal out of range"))?
                as i64;
            return Ok(Token::new(TokenKind::Int(value), self.span_from(start)));
        }

        let mut is_float = false;
        while self.peek().is_ascii_digit() {
            self.pos += 1;
        }
        if self.peek() == b'.' && self.peek2() != b'.' {
            is_float = true;
            self.pos += 1;
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
        }
        if self.peek() == b'e' || self.peek() == b'E' {
            let save = self.pos;
            self.pos += 1;
            if self.peek() == b'+' || self.peek() == b'-' {
                self.pos += 1;
            }
            if self.peek().is_ascii_digit() {
                is_float = true;
                while self.peek().is_ascii_digit() {
                    self.pos += 1;
                }
            } else {
                // Not an exponent after all (e.g. `1else` won't occur, but
                // `2e` followed by an identifier char would be an error).
                self.pos = save;
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            // Optional float suffix.
            if matches!(self.peek(), b'f' | b'F' | b'l' | b'L') {
                self.pos += 1;
            }
            let value: f64 = text
                .parse()
                .map_err(|_| self.error(start, "malformed float literal"))?;
            Ok(Token::new(TokenKind::Float(value), self.span_from(start)))
        } else {
            let had_float_suffix = matches!(self.peek(), b'f' | b'F');
            self.eat_int_suffix();
            let span = self.span_from(start);
            if had_float_suffix {
                let value: f64 = text
                    .parse()
                    .map_err(|_| self.error(start, "malformed float literal"))?;
                return Ok(Token::new(TokenKind::Float(value), span));
            }
            let value: i64 = text
                .parse()
                .map_err(|_| self.error(start, "integer literal out of range"))?;
            Ok(Token::new(TokenKind::Int(value), span))
        }
    }

    fn eat_int_suffix(&mut self) {
        // Accept any combination of u/U/l/L (e.g. `10UL`), and a lone f/F
        // handled by the caller.
        while matches!(self.peek(), b'u' | b'U' | b'l' | b'L' | b'f' | b'F') {
            self.pos += 1;
        }
    }

    fn lex_string(&mut self, start: usize) -> Result<Token, LexError> {
        self.pos += 1; // opening quote
        let mut value = String::new();
        loop {
            if self.pos >= self.bytes.len() || self.peek() == b'\n' {
                return Err(self.error(start, "unterminated string literal"));
            }
            match self.bump() {
                b'"' => break,
                b'\\' => {
                    let esc = self.bump();
                    value.push(unescape(esc).ok_or_else(|| {
                        self.error(start, format!("unknown escape `\\{}`", esc as char))
                    })?);
                }
                other => value.push(other as char),
            }
        }
        Ok(Token::new(TokenKind::Str(value), self.span_from(start)))
    }

    fn lex_char(&mut self, start: usize) -> Result<Token, LexError> {
        self.pos += 1; // opening quote
        let c = match self.bump() {
            b'\\' => {
                let esc = self.bump();
                unescape(esc).ok_or_else(|| {
                    self.error(start, format!("unknown escape `\\{}`", esc as char))
                })?
            }
            b'\'' => return Err(self.error(start, "empty character literal")),
            other => other as char,
        };
        if self.bump() != b'\'' {
            return Err(self.error(start, "unterminated character literal"));
        }
        Ok(Token::new(TokenKind::Char(c), self.span_from(start)))
    }

    /// Consume a full logical preprocessor line (honouring `\` continuations)
    /// and produce the corresponding structured token.
    fn lex_directive(&mut self, start: usize) -> Result<Token, LexError> {
        self.pos += 1; // '#'
                       // Directive name.
        while self.peek() == b' ' || self.peek() == b'\t' {
            self.pos += 1;
        }
        let name_start = self.pos;
        while self.peek().is_ascii_alphabetic() {
            self.pos += 1;
        }
        let name = self.src[name_start..self.pos].to_string();
        // Rest of the logical line.
        let mut rest = String::new();
        loop {
            match self.peek() {
                0 => break,
                b'\n' => break,
                b'\\' if self.peek2() == b'\n' => {
                    self.pos += 2;
                    rest.push(' ');
                }
                b'\\' if self.peek2() == b'\r' && self.peek3() == b'\n' => {
                    self.pos += 3;
                    rest.push(' ');
                }
                other => {
                    rest.push(other as char);
                    self.pos += 1;
                }
            }
        }
        let rest_trimmed = rest.trim().to_string();
        let span = self.span_from(start);

        match name.as_str() {
            "include" => {
                let (path, system) = parse_include_target(&rest_trimmed)
                    .ok_or_else(|| self.error(start, "malformed #include directive"))?;
                Ok(Token::new(TokenKind::Include { path, system }, span))
            }
            "pragma" => {
                let offset = span.start + (rest.len() as u32 - rest.trim_start().len() as u32);
                let tokens = lex_fragment(&rest_trimmed, offset).map_err(|e| LexError {
                    message: format!("in #pragma: {}", e.message),
                    span: e.span,
                })?;
                Ok(Token::new(
                    TokenKind::Pragma {
                        text: rest_trimmed,
                        tokens,
                    },
                    span,
                ))
            }
            "define" => {
                let mut parts = rest_trimmed.splitn(2, char::is_whitespace);
                let def_name = parts.next().unwrap_or("").to_string();
                if def_name.is_empty()
                    || !def_name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b == b'_')
                {
                    // Function-like macros (`#define MIN(a,b) ...`) and other
                    // exotica are preserved verbatim but not expanded.
                    return Ok(Token::new(
                        TokenKind::OtherDirective(format!("define {rest_trimmed}")),
                        span,
                    ));
                }
                let body_text = parts.next().unwrap_or("").trim().to_string();
                let body = lex_fragment(&body_text, span.start)?;
                Ok(Token::new(
                    TokenKind::Define {
                        name: def_name,
                        body,
                    },
                    span,
                ))
            }
            "" => Err(self.error(start, "missing preprocessor directive name")),
            other => Ok(Token::new(
                TokenKind::OtherDirective(format!("{other} {rest_trimmed}")),
                span,
            )),
        }
    }

    fn lex_punct(&mut self, start: usize) -> Result<Token, LexError> {
        use TokenKind::*;
        let b = self.bump();
        let kind = match b {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'?' => Question,
            b'~' => Tilde,
            b'.' => Dot,
            b':' => {
                if self.peek() == b':' {
                    self.pos += 1;
                    ColonColon
                } else {
                    Colon
                }
            }
            b'+' => match self.peek() {
                b'+' => {
                    self.pos += 1;
                    PlusPlus
                }
                b'=' => {
                    self.pos += 1;
                    PlusEq
                }
                _ => Plus,
            },
            b'-' => match self.peek() {
                b'-' => {
                    self.pos += 1;
                    MinusMinus
                }
                b'=' => {
                    self.pos += 1;
                    MinusEq
                }
                b'>' => {
                    self.pos += 1;
                    Arrow
                }
                _ => Minus,
            },
            b'*' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    StarEq
                } else {
                    Star
                }
            }
            b'/' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    SlashEq
                } else {
                    Slash
                }
            }
            b'%' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    PercentEq
                } else {
                    Percent
                }
            }
            b'&' => match self.peek() {
                b'&' => {
                    self.pos += 1;
                    AmpAmp
                }
                b'=' => {
                    self.pos += 1;
                    AmpEq
                }
                _ => Amp,
            },
            b'|' => match self.peek() {
                b'|' => {
                    self.pos += 1;
                    PipePipe
                }
                b'=' => {
                    self.pos += 1;
                    PipeEq
                }
                _ => Pipe,
            },
            b'^' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    CaretEq
                } else {
                    Caret
                }
            }
            b'!' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    Ne
                } else {
                    Bang
                }
            }
            b'=' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    EqEq
                } else {
                    Eq
                }
            }
            b'<' => {
                if self.peek() == b'<' && self.peek2() == b'<' {
                    self.pos += 2;
                    LaunchOpen
                } else if self.peek() == b'<' && self.peek2() == b'=' {
                    self.pos += 2;
                    ShlEq
                } else if self.peek() == b'<' {
                    self.pos += 1;
                    Shl
                } else if self.peek() == b'=' {
                    self.pos += 1;
                    Le
                } else {
                    Lt
                }
            }
            b'>' => {
                if self.peek() == b'>' && self.peek2() == b'>' {
                    self.pos += 2;
                    LaunchClose
                } else if self.peek() == b'>' && self.peek2() == b'=' {
                    self.pos += 2;
                    ShrEq
                } else if self.peek() == b'>' {
                    self.pos += 1;
                    Shr
                } else if self.peek() == b'=' {
                    self.pos += 1;
                    Ge
                } else {
                    Gt
                }
            }
            other => {
                return Err(self.error(start, format!("unexpected character `{}`", other as char)))
            }
        };
        Ok(Token::new(kind, self.span_from(start)))
    }
}

fn unescape(b: u8) -> Option<char> {
    Some(match b {
        b'n' => '\n',
        b't' => '\t',
        b'r' => '\r',
        b'0' => '\0',
        b'\\' => '\\',
        b'"' => '"',
        b'\'' => '\'',
        b'%' => '%', // tolerated: printf-style strings sometimes escape %
        _ => return None,
    })
}

fn parse_include_target(rest: &str) -> Option<(String, bool)> {
    let rest = rest.trim();
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some((stripped[..end].to_string(), false))
    } else if let Some(stripped) = rest.strip_prefix('<') {
        let end = stripped.find('>')?;
        Some((stripped[..end].to_string(), true))
    } else {
        None
    }
}

/// Expand simple object-like macros in a token stream (single pass — macros
/// defined earlier in the stream substitute into later tokens only, which
/// matches how our apps use them for problem-size constants). A stream
/// with no `#define` is returned as it is.
pub fn expand_defines(tokens: Vec<Token>) -> Vec<Token> {
    use std::collections::HashMap;
    if !tokens
        .iter()
        .any(|t| matches!(t.kind, TokenKind::Define { .. }))
    {
        return tokens;
    }
    let mut defs: HashMap<String, Vec<Token>> = HashMap::new();
    let mut out = Vec::with_capacity(tokens.len());
    for tok in tokens {
        match &tok.kind {
            TokenKind::Define { name, body } => {
                defs.insert(name.clone(), body.clone());
                // Keep the define in the stream so the printer can reproduce it.
                out.push(tok);
            }
            TokenKind::Ident(name) => {
                if let Some(body) = defs.get(name) {
                    for t in body {
                        out.push(Token::new(t.kind.clone(), tok.span));
                    }
                } else {
                    out.push(tok);
                }
            }
            _ => out.push(tok),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind as K;

    fn kinds(src: &str) -> Vec<K> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_numbers() {
        let k = kinds("foo _bar42 12 3.5 0x1F 2e3 1.0f 7UL");
        assert_eq!(
            k,
            vec![
                K::Ident("foo".into()),
                K::Ident("_bar42".into()),
                K::Int(12),
                K::Float(3.5),
                K::Int(31),
                K::Float(2000.0),
                K::Float(1.0),
                K::Int(7),
                K::Eof
            ]
        );
    }

    #[test]
    fn large_hex_wraps_to_i64() {
        let k = kinds("0x9E3779B97F4A7C15");
        assert_eq!(k[0], K::Int(0x9E3779B97F4A7C15u64 as i64));
    }

    #[test]
    fn int_with_float_suffix_is_float() {
        assert_eq!(kinds("2f"), vec![K::Float(2.0), K::Eof]);
    }

    #[test]
    fn punctuation_maximal_munch() {
        let k = kinds("a <<< b >>> c << d >> e <= >= == != ->");
        assert!(k.contains(&K::LaunchOpen));
        assert!(k.contains(&K::LaunchClose));
        assert!(k.contains(&K::Shl));
        assert!(k.contains(&K::Shr));
        assert!(k.contains(&K::Le));
        assert!(k.contains(&K::Arrow));
    }

    #[test]
    fn comments_skipped() {
        let k = kinds("a // line comment\n/* block\ncomment */ b");
        assert_eq!(k, vec![K::Ident("a".into()), K::Ident("b".into()), K::Eof]);
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex("/* never closed").is_err());
    }

    #[test]
    fn string_escapes() {
        let k = kinds(r#""hello\nworld""#);
        assert_eq!(k, vec![K::Str("hello\nworld".into()), K::Eof]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
        assert!(lex("\"abc\ndef\"").is_err());
    }

    #[test]
    fn include_local_and_system() {
        let k = kinds("#include \"kernel.h\"\n#include <stdio.h>\nint x;");
        assert_eq!(
            k[0],
            K::Include {
                path: "kernel.h".into(),
                system: false
            }
        );
        assert_eq!(
            k[1],
            K::Include {
                path: "stdio.h".into(),
                system: true
            }
        );
    }

    #[test]
    fn pragma_is_sublexed() {
        let toks = lex("#pragma omp parallel for collapse(2)\nint x;").unwrap();
        match &toks[0].kind {
            K::Pragma { text, tokens } => {
                assert_eq!(text, "omp parallel for collapse(2)");
                assert_eq!(tokens[0].kind, K::Ident("omp".into()));
                assert_eq!(tokens.last().unwrap().kind, K::RParen);
            }
            other => panic!("expected pragma, got {other:?}"),
        }
    }

    #[test]
    fn pragma_line_continuation() {
        let toks = lex("#pragma omp target teams \\\n    distribute parallel for\nint x;").unwrap();
        match &toks[0].kind {
            K::Pragma { text, .. } => {
                assert!(text.contains("distribute parallel for"), "{text}");
            }
            other => panic!("expected pragma, got {other:?}"),
        }
    }

    #[test]
    fn define_object_like() {
        let toks = lex("#define N 256\nint a = N;").unwrap();
        match &toks[0].kind {
            K::Define { name, body } => {
                assert_eq!(name, "N");
                assert_eq!(body[0].kind, K::Int(256));
            }
            other => panic!("expected define, got {other:?}"),
        }
    }

    #[test]
    fn define_function_like_preserved_not_expanded() {
        let toks = lex("#define MIN(a,b) ((a)<(b)?(a):(b))\nint x;").unwrap();
        assert!(matches!(toks[0].kind, K::OtherDirective(_)));
    }

    #[test]
    fn expand_defines_substitutes_later_uses() {
        let toks = lex("int b = N;\n#define N 16\nint a = N + N;").unwrap();
        let expanded = expand_defines(toks);
        let ints = expanded
            .iter()
            .filter(|t| matches!(t.kind, K::Int(16)))
            .count();
        assert_eq!(ints, 2);
        let names = expanded
            .iter()
            .filter(|t| t.kind == K::Ident("N".into()))
            .count();
        assert_eq!(names, 1, "a use before the `#define` stays an identifier");
    }

    #[test]
    fn expand_defines_hands_back_a_stream_without_defines() {
        let toks = lex("#include \"a.h\"\n#pragma omp parallel\nint a = N + 1;").unwrap();
        let (buffer, copy) = (toks.as_ptr(), toks.clone());
        let expanded = expand_defines(toks);
        assert_eq!(expanded, copy);
        assert_eq!(expanded.as_ptr(), buffer, "the stream must not be rebuilt");
    }

    #[test]
    fn stray_hash_mid_line_errors() {
        assert!(lex("int x = 3 # 4;").is_err());
    }

    #[test]
    fn ifdef_preserved_as_other_directive() {
        let toks = lex("#ifdef FOO\nint x;\n#endif\n").unwrap();
        assert!(matches!(&toks[0].kind, K::OtherDirective(d) if d.starts_with("ifdef")));
    }

    #[test]
    fn spans_resolve_lines() {
        let src = "int x;\nfloat y;\n";
        let toks = lex(src).unwrap();
        let y_tok = toks
            .iter()
            .find(|t| t.kind == K::Ident("y".into()))
            .unwrap();
        assert_eq!(crate::span::line_col(src, y_tok.span.start).line, 2);
    }
}

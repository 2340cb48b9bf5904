//! Grammar-side support for speculative decoding: incremental Verilog
//! lexical viability, to filter candidate tokens, plus the
//! syntax-integrity rule a committed span is cut by.
//!
//! # Viability-state design
//!
//! [`ViabilityState`] is a tiny `Copy` byte machine that answers one
//! question cheaply and incrementally: *can the byte stream emitted so
//! far still be extended into text the `verispec-verilog` lexer
//! accepts?* It is **not** a tokenizer — it never materialises tokens —
//! it only tracks the mode the hand-written lexer would be in mid-way
//! through the stream:
//!
//! ```text
//! Normal ──'/'──▶ AfterSlash ──'/'──▶ LineComment ──'\n'──▶ Normal
//!    │                │'*'──▶ BlockComment ──"*/"──▶ Normal
//!    │──'"'──▶ Str (── '\\' escapes ──) ──'"'──▶ Normal
//!    │──'`'──▶ Directive ──'\n'──▶ Normal
//!    │──'\\'─▶ EscapedIdentStart ──non-ws──▶ EscapedIdent ──ws──▶ Normal
//!    │──'\''─▶ BaseAwait ──[sS]?[bodh]──▶ BasedDigits ──digit*──▶ Normal
//!    └── everything else: stays Normal (every ASCII graphic byte
//!        starts or continues some valid token in the subset)
//! ```
//!
//! On top of the lexer modes the state keeps three nesting depths
//! (`()`, `[]`, `{}`) — a parser-level refinement: the lexer itself
//! happily tokenizes an unmatched `)` but no syntactically valid
//! continuation exists for it, so a closer at depth zero kills the
//! path. A state is **dead** when no byte suffix can make the stream
//! lexable (invalid based-literal digit, control byte, non-ASCII
//! outside comments/strings, unmatched closer); it is merely
//! *incomplete* — and still alive — inside an unterminated comment,
//! string, or based literal, because a suffix can always finish those.
//!
//! [`GrammarOracle`] lifts the byte machine to token ids: it caches
//! every vocabulary entry's exact decoded bytes (special ids
//! contribute nothing, mirroring `strip_specials`) so engines can ask
//! "is token `t` lexically viable after this state?" in O(token bytes).
//!
//! # Candidate filtering
//!
//! The grammar engine asks the oracle one question, when acceptance
//! reaches a node of its candidate tree: which of the next head's
//! best-ranked tokens are viable from the node's own state? Those
//! become the node's children — the unconstrained top-k when none in
//! the scanned window is — and [`PruneRecord`] counts, per step, the
//! ranked tokens the filter tested, rejected and named.
//!
//! The filter changes which candidates are *offered*, never how one is
//! *accepted* or what is *committed*: every edge is tested against the
//! base model's own distribution, and the committed span — the first
//! longest accepted path — is cut by [`syntax_keep_len`] (keep through
//! the last `[FRAG]`, or everything when EOS landed), exactly as the
//! unconstrained syntax-aligned engine cuts its own. The oracle changes
//! what is committed in one place only: a drawn base token that would
//! kill the byte stream is replaced by the best-ranked viable one. A
//! permissive oracle, or a dead state, offers the unconstrained
//! candidates.
//!
//! Nothing is cut from a tree once it is named. A token past a path's
//! last `[FRAG]`/EOS can never survive [`syntax_keep_len`], but it can
//! make its path the longest accepted one, and so decide which span
//! the cut is applied to: dropping such tails before verification
//! commits what the engine without the drop commits only when no
//! winner changes. The engine *is* that unpruned engine, so the
//! question does not arise; its verification is priced by its shape,
//! named or not.

#![deny(missing_docs)]

use verispec_tokenizer::{BpeTokenizer, TokenId};

/// Lexer mode component of [`ViabilityState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Mode {
    /// Between tokens / inside an ordinary token.
    #[default]
    Normal,
    /// Saw `/`; next byte decides comment vs the `/` operator.
    AfterSlash,
    /// Inside `// …` (until newline).
    LineComment,
    /// Inside `/* … */`; `star` = previous byte was `*`.
    BlockComment {
        /// Whether the previous byte was `*` (a following `/` closes).
        star: bool,
    },
    /// Inside a string literal; `escape` = previous byte was `\`.
    Str {
        /// Whether the next byte is escaped.
        escape: bool,
    },
    /// Inside a compiler directive (`` ` `` … newline).
    Directive,
    /// Saw `'`; awaiting optional `s`/`S` then a base letter.
    BaseAwait {
        /// Whether the optional signed marker was already consumed.
        signed_seen: bool,
    },
    /// Inside a based literal's digit run.
    BasedDigits {
        /// Lower-cased base letter (`b`/`o`/`d`/`h`).
        base: u8,
        /// Whether at least one digit-run byte was consumed.
        any: bool,
    },
    /// Saw `\` in normal mode; an escaped identifier must follow.
    EscapedIdentStart,
    /// Inside `\escaped_identifier` (until whitespace).
    EscapedIdent,
}

/// Incremental lexical viability of a byte stream.
///
/// Fold bytes in with [`feed_byte`](Self::feed_byte); once
/// [`is_dead`](Self::is_dead) reports `true` no suffix can make the
/// stream lexable and the state stays dead forever. The state is a
/// pure fold: feeding a string in any chunking yields the same state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViabilityState {
    mode: Mode,
    parens: u32,
    brackets: u32,
    braces: u32,
    dead: bool,
}

/// Whether `b` may appear in a based literal's digit run at all
/// (validity per base is checked separately).
fn digit_run_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'?'
}

/// Whether digit-run byte `b` is legal for (lower-cased) `base`.
fn digit_ok(base: u8, b: u8) -> bool {
    if b == b'_' || b == b'?' {
        return true;
    }
    let d = b.to_ascii_lowercase();
    match base {
        b'b' => matches!(d, b'0' | b'1' | b'x' | b'z'),
        b'o' => matches!(d, b'0'..=b'7' | b'x' | b'z'),
        b'd' => d.is_ascii_digit(),
        b'h' => d.is_ascii_hexdigit() || d == b'x' || d == b'z',
        _ => false,
    }
}

impl ViabilityState {
    /// A fresh state: normal mode, zero nesting, alive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no byte suffix can make the stream lexable.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Current `(paren, bracket, brace)` nesting depths.
    pub fn depths(&self) -> (u32, u32, u32) {
        (self.parens, self.brackets, self.braces)
    }

    /// Folds one byte into the state. Dead states stay dead.
    pub fn feed_byte(&mut self, b: u8) {
        if self.dead {
            return;
        }
        // A mode may terminate its token and hand the byte back to
        // normal mode (e.g. `;` ending a based literal), hence the loop.
        loop {
            match self.mode {
                Mode::Normal => {
                    self.normal_byte(b);
                    return;
                }
                Mode::AfterSlash => match b {
                    b'/' => {
                        self.mode = Mode::LineComment;
                        return;
                    }
                    b'*' => {
                        self.mode = Mode::BlockComment { star: false };
                        return;
                    }
                    // The `/` was the division operator; reprocess.
                    _ => self.mode = Mode::Normal,
                },
                Mode::LineComment => {
                    if b == b'\n' {
                        self.mode = Mode::Normal;
                    }
                    return;
                }
                Mode::BlockComment { star } => {
                    if star && b == b'/' {
                        self.mode = Mode::Normal;
                    } else {
                        self.mode = Mode::BlockComment { star: b == b'*' };
                    }
                    return;
                }
                Mode::Str { escape } => {
                    self.mode = match (escape, b) {
                        (true, _) => Mode::Str { escape: false },
                        (false, b'"') => Mode::Normal,
                        (false, b'\\') => Mode::Str { escape: true },
                        (false, _) => Mode::Str { escape: false },
                    };
                    return;
                }
                Mode::Directive => {
                    if b == b'\n' {
                        self.mode = Mode::Normal;
                    }
                    return;
                }
                Mode::BaseAwait { signed_seen } => {
                    if !signed_seen && (b == b's' || b == b'S') {
                        self.mode = Mode::BaseAwait { signed_seen: true };
                    } else if matches!(b.to_ascii_lowercase(), b'b' | b'o' | b'd' | b'h') {
                        self.mode = Mode::BasedDigits {
                            base: b.to_ascii_lowercase(),
                            any: false,
                        };
                    } else {
                        self.dead = true; // invalid number base
                    }
                    return;
                }
                Mode::BasedDigits { base, any } => {
                    if digit_run_byte(b) {
                        if digit_ok(base, b) {
                            self.mode = Mode::BasedDigits { base, any: true };
                        } else {
                            self.dead = true; // digit not valid for base
                        }
                        return;
                    }
                    if !any {
                        self.dead = true; // based literal has no digits
                        return;
                    }
                    // Literal complete; reprocess the terminator.
                    self.mode = Mode::Normal;
                }
                Mode::EscapedIdentStart => {
                    if b.is_ascii_whitespace() {
                        self.dead = true; // empty escaped identifier
                    } else {
                        self.mode = Mode::EscapedIdent;
                    }
                    return;
                }
                Mode::EscapedIdent => {
                    if b.is_ascii_whitespace() {
                        self.mode = Mode::Normal;
                    }
                    return;
                }
            }
        }
    }

    /// One byte in normal (between-tokens) mode.
    fn normal_byte(&mut self, b: u8) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' | b'\x0c' => {}
            b'/' => self.mode = Mode::AfterSlash,
            b'`' => self.mode = Mode::Directive,
            b'"' => self.mode = Mode::Str { escape: false },
            b'\\' => self.mode = Mode::EscapedIdentStart,
            b'\'' => self.mode = Mode::BaseAwait { signed_seen: false },
            b'(' => self.parens += 1,
            b'[' => self.brackets += 1,
            b'{' => self.braces += 1,
            b')' => match self.parens.checked_sub(1) {
                Some(d) => self.parens = d,
                None => self.dead = true,
            },
            b']' => match self.brackets.checked_sub(1) {
                Some(d) => self.brackets = d,
                None => self.dead = true,
            },
            b'}' => match self.braces.checked_sub(1) {
                Some(d) => self.braces = d,
                None => self.dead = true,
            },
            // Every remaining ASCII graphic byte starts or continues a
            // valid token (identifier, number, operator, `$sysident`).
            0x21..=0x7e => {}
            // Control bytes and non-ASCII cannot begin a token.
            _ => self.dead = true,
        }
    }

    /// Folds a byte slice into the state.
    pub fn feed_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            if self.dead {
                return;
            }
            self.feed_byte(b);
        }
    }

    /// Folds a string's bytes into the state.
    pub fn feed_str(&mut self, text: &str) {
        self.feed_bytes(text.as_bytes());
    }
}

/// Token-level view of [`ViabilityState`]: caches every vocabulary
/// entry's exact decoded bytes so viability queries cost O(token
/// bytes), with special ids contributing nothing (they never reach
/// the plain-text stream — mirrors `strip_specials`/defragmentation).
#[derive(Debug, Clone)]
pub struct GrammarOracle {
    tokens: Vec<Vec<u8>>,
}

impl GrammarOracle {
    /// Builds an oracle over an explicit per-id byte table (ids that
    /// should contribute nothing — specials — use an empty entry).
    /// Primarily for tests; production callers use
    /// [`from_tokenizer`](Self::from_tokenizer).
    pub fn new(tokens: Vec<Vec<u8>>) -> Self {
        GrammarOracle { tokens }
    }

    /// Builds an oracle from a tokenizer's vocabulary.
    pub fn from_tokenizer(tok: &BpeTokenizer) -> Self {
        let tokens = (0..tok.vocab_size() as TokenId)
            .map(|id| {
                if tok.is_special(id) {
                    Vec::new()
                } else {
                    tok.token_bytes(id).expect("id < vocab_size").to_vec()
                }
            })
            .collect();
        GrammarOracle { tokens }
    }

    /// Number of ids the oracle knows byte contributions for.
    pub fn vocab_size(&self) -> usize {
        self.tokens.len()
    }

    /// The bytes `id` contributes to the plain-text stream (empty for
    /// specials and out-of-vocabulary ids).
    pub fn token_bytes(&self, id: TokenId) -> &[u8] {
        self.tokens.get(id as usize).map_or(&[], Vec::as_slice)
    }

    /// The state after appending `token` (specials and unknown ids
    /// leave the state unchanged).
    pub fn advance(&self, mut state: ViabilityState, token: TokenId) -> ViabilityState {
        state.feed_bytes(self.token_bytes(token));
        state
    }

    /// The state after appending a whole token sequence.
    pub fn advance_all(&self, mut state: ViabilityState, tokens: &[TokenId]) -> ViabilityState {
        for &t in tokens {
            if state.is_dead() {
                break;
            }
            state.feed_bytes(self.token_bytes(t));
        }
        state
    }

    /// Like [`advance_all`](Self::advance_all), but death-recovering: a
    /// byte that would kill the state instead restarts the fold from a
    /// fresh state *after* that byte. Real decode streams mix prose and
    /// code — instruction wrappers around a Verilog tail, or a sampled
    /// token the base-constraint scan could not steer — and a literal
    /// lexer fold dies at the first non-Verilog byte, permanently
    /// disabling the grammar layer for the request. Recovery re-arms it
    /// at every such boundary while remaining a pure function of the
    /// token stream (so parked/resumed sessions rebuild the exact same
    /// state). Nesting depths accumulated before a reset are dropped
    /// with it; that only ever *loosens* the filter, never rejects a
    /// continuation a fresh lexer would accept.
    pub fn advance_recovering(
        &self,
        mut state: ViabilityState,
        tokens: &[TokenId],
    ) -> ViabilityState {
        for &t in tokens {
            for &b in self.token_bytes(t) {
                state.feed_byte(b);
                if state.is_dead() {
                    state = ViabilityState::new();
                }
            }
        }
        state
    }

    /// Whether appending `token` leaves the stream lexically viable.
    /// Always `false` from an already-dead state; always `true` for
    /// specials from a live state (they contribute no bytes).
    pub fn viable(&self, state: ViabilityState, token: TokenId) -> bool {
        !self.advance(state, token).is_dead()
    }
}

/// What the viability filter did while a grammar step named its
/// candidate tree, summed over the nodes whose children it named, in
/// ranked head tokens: `considered == pruned + surviving`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneRecord {
    /// Ranked tokens the filter tested for viability.
    pub considered: usize,
    /// Tested tokens it rejected as non-viable.
    pub pruned: usize,
    /// Tested tokens it found viable and named as candidates (a node
    /// that falls back to the unconstrained top-k counts none).
    pub surviving: usize,
}

/// Number of leading tokens of a committed span the post-hoc
/// syntax-integrity check keeps: everything when EOS landed, otherwise
/// through the last `[FRAG]` (or just the base token when none).
///
/// This is the exact rule the syntax-aligned engines apply at commit
/// time (see the crate docs).
pub fn syntax_keep_len(committed: &[TokenId], frag: TokenId, eos: TokenId) -> usize {
    if committed.contains(&eos) {
        committed.len()
    } else {
        committed
            .iter()
            .rposition(|&t| t == frag)
            .map(|p| p + 1)
            .unwrap_or(1)
            .min(committed.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verispec_tokenizer::special;

    fn state_of(text: &str) -> ViabilityState {
        let mut s = ViabilityState::new();
        s.feed_str(text);
        s
    }

    #[test]
    fn valid_verilog_prefixes_stay_alive() {
        let src = "module m(input a, output y);\n\
                   // a comment with anything: \u{00e9}\u{00df}\n\
                   /* block * comment */\n\
                   `timescale 1ns/1ps\n\
                   wire [3:0] w = 4'b10_1z;\n\
                   assign y = (a == 1'sd1) ? w[0] : ~a;\n\
                   $display(\"esc \\\" quote\");\n\
                   \\bus[0] ;\n\
                   endmodule\n";
        let mut s = ViabilityState::new();
        for (i, &b) in src.as_bytes().iter().enumerate() {
            s.feed_byte(b);
            assert!(!s.is_dead(), "dead after byte {i} ({:?})", &src[..=i]);
        }
        assert_eq!(s.depths(), (0, 0, 0));
    }

    #[test]
    fn dead_inputs_die_and_stay_dead() {
        for bad in [
            ")",           // unmatched closer
            "a ]",         // unmatched bracket
            "4'q1010",     // invalid base
            "2'b012",      // digit not valid for base b
            "8'o9",        // digit not valid for base o
            "3'd_a",       // 'a' invalid for decimal base
            "'';",         // apostrophe then apostrophe: no base
            "4'b;",        // based literal with no digits
            "\\ x",        // empty escaped identifier
            "caf\u{00e9}", // non-ASCII in normal mode
            "a \x07 b",    // control byte in normal mode
            "a \x0b b",    // vertical tab is not lexer whitespace
        ] {
            let mut s = state_of(bad);
            assert!(s.is_dead(), "expected dead: {bad:?}");
            s.feed_str(" module m;");
            assert!(s.is_dead(), "dead state must stay dead: {bad:?}");
        }
    }

    #[test]
    fn incomplete_constructs_are_alive_not_dead() {
        for partial in [
            "/",            // could become a comment or stay division
            "// open line", // newline can still arrive
            "/* open",      // can still close
            "\"open str",   // can still close
            "\"esc \\",     // escape awaiting its byte
            "4'",           // base letter can still arrive
            "4'h",          // digits can still arrive
            "8's",          // base letter after signed marker
            "(a[{",         // openers just deepen
            "\\partial",    // escaped ident awaiting whitespace
            "`timescal",    // directive awaiting newline
        ] {
            assert!(!state_of(partial).is_dead(), "expected alive: {partial:?}");
        }
    }

    #[test]
    fn chunked_feeding_matches_whole_feeding() {
        let src = "assign y = 4'hF + (a << 2); // t\n\"s\\\"t\" /*c*/ `d\n";
        let whole = state_of(src);
        for split in 0..=src.len() {
            if !src.is_char_boundary(split) {
                continue;
            }
            let mut s = ViabilityState::new();
            s.feed_str(&src[..split]);
            s.feed_str(&src[split..]);
            assert_eq!(s, whole, "split at {split}");
        }
    }

    #[test]
    fn number_terminator_is_reprocessed_in_normal_mode() {
        // `)` terminating a based literal must still count as a closer.
        assert!(!state_of("(4'b01)").is_dead());
        assert_eq!(state_of("(4'b01)").depths(), (0, 0, 0));
        assert!(state_of("4'b01)").is_dead());
    }

    #[test]
    fn oracle_specials_are_transparent_and_viability_matches_bytes() {
        let tok = BpeTokenizer::byte_level();
        let oracle = GrammarOracle::from_tokenizer(&tok);
        assert_eq!(oracle.vocab_size(), tok.vocab_size());
        let s = ViabilityState::new();
        for sp in [
            special::PAD,
            special::BOS,
            special::EOS,
            special::FRAG,
            special::IGNORE,
        ] {
            assert_eq!(oracle.token_bytes(sp), b"");
            assert_eq!(oracle.advance(s, sp), s);
            assert!(oracle.viable(s, sp));
        }
        // Out-of-vocab ids are also transparent rather than a panic.
        assert_eq!(oracle.advance(s, 1_000_000), s);
        // Byte-level: `)` at depth zero is not viable, `(` is.
        let open = verispec_tokenizer::BYTE_BASE + b'(' as TokenId;
        let close = verispec_tokenizer::BYTE_BASE + b')' as TokenId;
        assert!(oracle.viable(s, open));
        assert!(!oracle.viable(s, close));
        let after_open = oracle.advance(s, open);
        assert!(oracle.viable(after_open, close));
        // advance_all folds a whole sequence.
        let seq = [open, close, special::FRAG];
        let end = oracle.advance_all(s, &seq);
        assert!(!end.is_dead());
        assert_eq!(end.depths(), (0, 0, 0));
    }

    #[test]
    fn keep_len_matches_posthoc_rule() {
        let (f, e) = (special::FRAG, special::EOS);
        assert_eq!(syntax_keep_len(&[9, 8, f, 7], f, e), 3);
        assert_eq!(syntax_keep_len(&[9, f, 8, f], f, e), 4);
        assert_eq!(syntax_keep_len(&[9, 8, 7], f, e), 1);
        assert_eq!(syntax_keep_len(&[9, 8, e], f, e), 3);
        assert_eq!(syntax_keep_len(&[9, e, 8], f, e), 3);
        assert_eq!(syntax_keep_len(&[], f, e), 0);
    }
}

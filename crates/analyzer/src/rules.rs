//! The lint rules, the allow-pragma machinery, and the per-file driver.
//!
//! Every rule works on the token stream of [`crate::lexer`] — no AST.
//! The rules are deliberately conservative: where the token stream
//! cannot prove an iteration order-insensitive or an index in-bounds,
//! they report, and a reviewed `// analyzer: allow(<rule>) <reason>`
//! pragma records the human judgement in the source itself.

use std::collections::BTreeSet;
use std::ops::RangeInclusive;
use std::path::Path;

use crate::lexer::{lex, Lexed, Token, TokenKind};

/// Rule identifiers, as spelled in reports and allow-pragmas.
pub const RULES: [&str; 5] = [
    "hash-iter",
    "unseeded-rng",
    "wall-clock",
    "lib-panic",
    "undocumented-unsafe",
];

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path as given to [`lint_file`] (workspace-relative in the CLI).
    pub path: String,
    pub line: u32,
    /// One of [`RULES`], or the internal `bad-pragma` for malformed
    /// suppressions (those cannot themselves be suppressed).
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A parsed `// analyzer: allow(<rule>) <reason>` pragma.
#[derive(Debug)]
pub struct Pragma {
    pub rule: String,
    pub reason: String,
    pub line: u32,
    /// Source lines this pragma suppresses: its own line when trailing
    /// code, otherwise the next statement or brace-delimited item.
    pub scope: RangeInclusive<u32>,
    /// How many findings it actually suppressed (an unused pragma is
    /// itself reported — stale suppressions must not accumulate).
    pub used: usize,
}

/// Everything the linter produced for one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that survived pragma suppression.
    pub findings: Vec<Finding>,
    /// Suppressed findings, with the pragma reason attached.
    pub suppressed: Vec<(Finding, String)>,
}

/// Lints one file's source text. `path` decides which rules apply (see
/// `Scope`); it is echoed into findings verbatim.
pub fn lint_file(path: &str, source: &str) -> FileReport {
    let lexed = lex(source);
    let scope = Scope::of(path);
    let test_mask = test_region_mask(&lexed.tokens);

    let mut raw: Vec<Finding> = Vec::new();
    if scope.hash_iter {
        hash_iter(path, &lexed, &test_mask, &mut raw);
    }
    if scope.unseeded_rng {
        unseeded_rng(path, &lexed, &test_mask, &mut raw);
    }
    if scope.wall_clock {
        wall_clock(path, &lexed, &test_mask, &mut raw);
    }
    if scope.lib_panic {
        lib_panic(path, &lexed, &test_mask, &mut raw);
    }
    // undocumented-unsafe applies everywhere, tests included: a test
    // exercising unsafe code needs its justification just as much.
    undocumented_unsafe(path, &lexed, &mut raw);

    // One finding per (line, rule): a line indexing a slice five times
    // is one decision for the reader, not five.
    raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    raw.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);

    let mut pragmas = parse_pragmas(path, &lexed, &mut raw);
    let mut report = FileReport::default();
    'findings: for finding in raw {
        for pragma in pragmas.iter_mut() {
            if pragma.rule == finding.rule && pragma.scope.contains(&finding.line) {
                pragma.used += 1;
                report.suppressed.push((finding, pragma.reason.clone()));
                continue 'findings;
            }
        }
        report.findings.push(finding);
    }
    for pragma in &pragmas {
        if pragma.used == 0 {
            report.findings.push(Finding {
                path: path.to_string(),
                line: pragma.line,
                rule: "bad-pragma",
                message: format!(
                    "unused allow({}) pragma — nothing in its scope triggers the rule",
                    pragma.rule
                ),
            });
        }
    }
    report.findings.sort_by_key(|f| f.line);
    report
}

/// Which rules apply to a file, derived from its workspace path.
struct Scope {
    hash_iter: bool,
    unseeded_rng: bool,
    wall_clock: bool,
    lib_panic: bool,
}

impl Scope {
    fn of(path: &str) -> Self {
        let p = path.replace('\\', "/");
        let vendored = p.contains("vendor/");
        // Panic-free-contract crates: decode/query/storage layers whose
        // library paths must return errors, not abort the process.
        let lib_panic = [
            "crates/codec/",
            "crates/queries/",
            "crates/engine/",
            "crates/runtime/",
        ]
        .iter()
        .any(|c| p.contains(c));
        // Kernel / decode / query modules: code on the annotation or
        // query hot path, where wall-clock reads break replayability.
        // (c2mn's trainer does wall-clock *reporting*, which is fine —
        // progress lines are not part of the deterministic output.)
        let wall_clock = ["crates/pgm/", "crates/queries/", "crates/engine/"]
            .iter()
            .any(|c| p.contains(c))
            || (p.contains("crates/c2mn/")
                && !p.ends_with("trainer.rs")
                && !p.ends_with("config.rs")
                && !p.ends_with("error.rs"));
        Scope {
            hash_iter: true,
            // The vendored rand crate *defines* `from_entropy`; the rule
            // polices its users, not its implementation.
            unseeded_rng: !vendored,
            wall_clock,
            lib_panic,
        }
    }
}

/// Marks every token inside `#[cfg(test)]` / `#[test]` items. The mask
/// is by token index.
fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let close = match matching(tokens, i + 1, '[', ']') {
                Some(c) => c,
                None => break,
            };
            let attr = &tokens[i + 2..close];
            let is_test_attr =
                attr.iter().any(|t| t.is_ident("test")) && !attr.iter().any(|t| t.is_ident("not"));
            if is_test_attr {
                // Cover the attribute itself, any further attributes, and
                // the annotated item (to its closing brace or `;`).
                let mut j = close + 1;
                while tokens.get(j).is_some_and(|t| t.is_punct('#'))
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    j = match matching(tokens, j + 1, '[', ']') {
                        Some(c) => c + 1,
                        None => return mask,
                    };
                }
                let mut end = j;
                while end < tokens.len() {
                    if tokens[end].is_punct('{') {
                        end = matching(tokens, end, '{', '}').unwrap_or(tokens.len() - 1);
                        break;
                    }
                    if tokens[end].is_punct(';') {
                        break;
                    }
                    end += 1;
                }
                for m in mask.iter_mut().take(end.min(tokens.len() - 1) + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index of the token closing the bracket opened at `open` (which must
/// hold `open_c`), honouring nesting.
fn matching(tokens: &[Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

fn finding(path: &str, line: u32, rule: &'static str, message: String) -> Finding {
    Finding {
        path: path.to_string(),
        line,
        rule,
        message,
    }
}

// ---------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------

/// Parses `// analyzer: allow(<rule>) <reason>` comments. Malformed
/// pragmas (unknown rule, missing reason) are pushed into `raw` as
/// `bad-pragma` findings.
fn parse_pragmas(path: &str, lexed: &Lexed, raw: &mut Vec<Finding>) -> Vec<Pragma> {
    let token_lines = lexed.token_lines();
    let mut pragmas = Vec::new();
    for comment in &lexed.comments {
        let Some(rest) = comment
            .text
            .trim_start_matches('/')
            .trim()
            .strip_prefix("analyzer:")
        else {
            continue;
        };
        let rest = rest.trim();
        let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            raw.push(finding(
                path,
                comment.line,
                "bad-pragma",
                format!("malformed analyzer pragma: `{}`", comment.text.trim()),
            ));
            continue;
        };
        let (rule, reason) = (inner.0.trim().to_string(), inner.1.trim().to_string());
        if !RULES.contains(&rule.as_str()) {
            raw.push(finding(
                path,
                comment.line,
                "bad-pragma",
                format!("allow() names unknown rule `{rule}`"),
            ));
            continue;
        }
        if reason.is_empty() {
            raw.push(finding(
                path,
                comment.line,
                "bad-pragma",
                format!("allow({rule}) carries no reason — every suppression must be justified"),
            ));
            continue;
        }
        let scope = pragma_scope(comment.line, &token_lines, lexed);
        pragmas.push(Pragma {
            rule,
            reason,
            line: comment.line,
            scope,
            used: 0,
        });
    }
    pragmas
}

/// The lines a pragma at `line` suppresses. Trailing a code line, it
/// covers that line. On its own line, it covers the next statement —
/// through the first balanced `{…}` block if the construct opens one
/// before its terminating `;` (so a pragma above an `fn` covers the
/// whole body).
fn pragma_scope(line: u32, token_lines: &BTreeSet<u32>, lexed: &Lexed) -> RangeInclusive<u32> {
    if token_lines.contains(&line) {
        return line..=line;
    }
    let Some(start) = lexed.tokens.iter().position(|t| t.line > line) else {
        return line..=line;
    };
    let first_line = lexed.tokens[start].line;
    let mut depth = 0usize;
    for (j, t) in lexed.tokens.iter().enumerate().skip(start) {
        if t.is_punct('{') {
            if let Some(close) = matching(&lexed.tokens, j, '{', '}') {
                return first_line..=lexed.tokens[close].line;
            }
            return first_line..=u32::MAX;
        }
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if (t.is_punct(';') || t.is_punct('}')) && depth == 0 {
            // `;` ends a statement; `}` ends the enclosing block (the
            // pragma covered a tail expression).
            return first_line..=lexed.tokens[j].line;
        }
    }
    first_line..=u32::MAX
}

// ---------------------------------------------------------------------
// Rule: undocumented-unsafe
// ---------------------------------------------------------------------

/// Every `unsafe` keyword must have a `SAFETY:` comment on the same line
/// or in the contiguous comment block directly above. A `/// # Safety`
/// doc heading documents the *caller's* obligation, not why this
/// particular use is sound, so it does not count.
fn undocumented_unsafe(path: &str, lexed: &Lexed, raw: &mut Vec<Finding>) {
    let token_lines = lexed.token_lines();
    for (j, t) in lexed.tokens.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        // `unsafe` inside an attribute (e.g. `#[allow(unsafe_code)]` in
        // a lint list) is not an unsafe block; cheap filter: previous
        // token `(` after an ident means argument position.
        if j >= 1 && lexed.tokens[j - 1].is_punct('(') {
            continue;
        }
        let line = t.line;
        let mut documented = lexed
            .comments
            .iter()
            .any(|c| c.line == line && c.text.contains("SAFETY:"));
        if !documented {
            // The `unsafe` may sit mid-statement (`let x = unsafe {…}`
            // spanning lines) — the SAFETY comment belongs above the
            // *statement*, so walk comments up from its first line.
            let mut stmt_start = j;
            while stmt_start > 0 {
                let p = &lexed.tokens[stmt_start - 1];
                if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
                    break;
                }
                stmt_start -= 1;
            }
            let mut l = lexed.tokens[stmt_start].line.min(line) - 1;
            while l > 0 && !token_lines.contains(&l) {
                let comments_here: Vec<_> = lexed.comments.iter().filter(|c| c.line == l).collect();
                if comments_here.is_empty() {
                    break;
                }
                if comments_here.iter().any(|c| c.text.contains("SAFETY:")) {
                    documented = true;
                    break;
                }
                l -= 1;
            }
        }
        if !documented {
            raw.push(finding(
                path,
                line,
                "undocumented-unsafe",
                "`unsafe` without a `// SAFETY:` comment explaining why it is sound".to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule: wall-clock
// ---------------------------------------------------------------------

/// `Instant::now` / `SystemTime` in kernel/decode/query modules: output
/// that depends on the clock is not replayable.
fn wall_clock(path: &str, lexed: &Lexed, test_mask: &[bool], raw: &mut Vec<Finding>) {
    for (j, t) in lexed.tokens.iter().enumerate() {
        if test_mask[j] {
            continue;
        }
        let hit = (t.is_ident("Instant")
            && lexed.tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && lexed.tokens.get(j + 3).is_some_and(|t| t.is_ident("now")))
            || t.is_ident("SystemTime");
        if hit {
            raw.push(finding(
                path,
                t.line,
                "wall-clock",
                format!(
                    "`{}` in a kernel/decode/query module — clock reads break replayability",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule: unseeded-rng
// ---------------------------------------------------------------------

/// `thread_rng` / `from_entropy` anywhere, and `seed_from_u64` whose
/// seed expression is not constant or derived from a seed.
fn unseeded_rng(path: &str, lexed: &Lexed, test_mask: &[bool], raw: &mut Vec<Finding>) {
    for (j, t) in lexed.tokens.iter().enumerate() {
        if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
            // OS entropy is nondeterministic even in tests.
            raw.push(finding(
                path,
                t.line,
                "unseeded-rng",
                format!("`{}` draws OS entropy — derive the seed instead", t.text),
            ));
            continue;
        }
        if !t.is_ident("seed_from_u64") || test_mask[j] {
            continue;
        }
        let Some(open) = lexed.tokens.get(j + 1).filter(|t| t.is_punct('(')) else {
            continue;
        };
        let _ = open;
        let Some(close) = matching(&lexed.tokens, j + 1, '(', ')') else {
            continue;
        };
        let args = &lexed.tokens[j + 2..close];
        if !seed_expr_is_derived(args) {
            raw.push(finding(
                path,
                t.line,
                "unseeded-rng",
                "`seed_from_u64` with a seed that is neither constant nor derived from a seed"
                    .to_string(),
            ));
        }
    }
}

/// A seed expression is acceptable when every identifier in it is
/// seed-derived: literals, arithmetic, casts, and idents/calls whose
/// name contains `seed` (`sequence_seed(..)`, `base_seed`, …).
fn seed_expr_is_derived(args: &[Token]) -> bool {
    // A call to a `*seed*` helper launders its arguments: the helper is
    // the derivation. The callee is the ident right before the first
    // `(` (handles path-qualified `mod::sequence_seed(…)`).
    if let Some(open) = args.iter().position(|t| t.is_punct('(')) {
        if open >= 1
            && args[open - 1].kind == TokenKind::Ident
            && args[open - 1].text.contains("seed")
        {
            return true;
        }
    }
    if args
        .first()
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text.contains("seed"))
    {
        return true;
    }
    args.iter().all(|t| match t.kind {
        TokenKind::Ident => {
            t.text.contains("seed")
                || t.text.contains("SEED")
                || matches!(
                    t.text.as_str(),
                    "as" | "u64" | "u32" | "usize" | "wrapping_add" | "wrapping_mul"
                )
        }
        _ => true,
    })
}

// ---------------------------------------------------------------------
// Rule: lib-panic
// ---------------------------------------------------------------------

/// Macros whose bracketed interior is exempt from lib-panic checks:
/// either the macro is itself an intentional assertion, or its interior
/// is formatting, not library control flow.
const EXEMPT_MACROS: [&str; 14] = [
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "matches",
    "write",
    "writeln",
    "format",
    "print",
    "println",
    "eprintln",
    "vec",
];

/// `unwrap`/`expect`/`panic!`/`todo!`/slice indexing in non-test code of
/// panic-free-contract crates.
fn lib_panic(path: &str, lexed: &Lexed, test_mask: &[bool], raw: &mut Vec<Finding>) {
    let tokens = &lexed.tokens;
    let mut skip_until = 0usize;
    for j in 0..tokens.len() {
        if test_mask[j] || j < skip_until {
            continue;
        }
        let t = &tokens[j];
        // Exempt macro interiors (assert!, writeln!, vec![…], …).
        if t.kind == TokenKind::Ident
            && EXEMPT_MACROS.contains(&t.text.as_str())
            && tokens.get(j + 1).is_some_and(|n| n.is_punct('!'))
        {
            if let Some(open) = tokens.get(j + 2) {
                let (oc, cc) = match &*open.text {
                    "(" => ('(', ')'),
                    "[" => ('[', ']'),
                    "{" => ('{', '}'),
                    _ => continue,
                };
                if let Some(close) = matching(tokens, j + 2, oc, cc) {
                    skip_until = close + 1;
                }
            }
            continue;
        }
        // .unwrap() / .expect(…)
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && j >= 1
            && tokens[j - 1].is_punct('.')
            && tokens.get(j + 1).is_some_and(|n| n.is_punct('('))
        {
            raw.push(finding(
                path,
                t.line,
                "lib-panic",
                format!("`.{}()` in a panic-free-contract crate", t.text),
            ));
            continue;
        }
        // panic! / todo! / unimplemented!
        if (t.is_ident("panic") || t.is_ident("todo") || t.is_ident("unimplemented"))
            && tokens.get(j + 1).is_some_and(|n| n.is_punct('!'))
        {
            raw.push(finding(
                path,
                t.line,
                "lib-panic",
                format!("`{}!` in a panic-free-contract crate", t.text),
            ));
            continue;
        }
        // Slice indexing: `expr[i]` — an ident, `]`, or `)` directly
        // followed by `[`. (Attributes `#[…]` and `vec![…]` never match:
        // their `[` follows `#` or `!`.)
        if t.is_punct('[')
            && j >= 1
            && (tokens[j - 1].kind == TokenKind::Ident
                || tokens[j - 1].is_punct(']')
                || tokens[j - 1].is_punct(')'))
        {
            // Not indexing: array type `[T; N]` after `:`/`->`, or a
            // declaration-position ident like `let [a, b] = …`.
            let prev = &tokens[j - 1];
            if prev.kind == TokenKind::Ident
                && matches!(
                    prev.text.as_str(),
                    "let" | "in" | "return" | "mut" | "ref" | "const" | "static" | "as" | "else"
                )
            {
                continue;
            }
            raw.push(finding(
                path,
                t.line,
                "lib-panic",
                "slice indexing in a panic-free-contract crate (use `get`/iterators or justify)"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule: hash-iter
// ---------------------------------------------------------------------

/// Methods that iterate a hash collection.
const ITER_METHODS: [&str; 6] = ["iter", "iter_mut", "into_iter", "keys", "values", "drain"];

/// Chain methods that make iteration order irrelevant (commutative
/// reductions) or re-establish an order (sorts, ordered collects).
const NEUTRALIZERS: [&str; 16] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sum",
    "product",
    "count",
    "len",
    "min",
    "max",
    "min_by_key",
    "max_by_key",
    "all",
    "any",
];

/// Order-sensitive sinks inside a `for`-over-hash body.
const ORDER_SINKS: [&str; 7] = [
    "push", "push_str", "write", "writeln", "print", "println", "format",
];

/// Iterating a `HashMap`/`HashSet` into ordered output without a sort.
/// Heuristic: find identifiers bound to hash types in this file, then
/// flag `.iter()`-family calls and `for … in` loops over them unless the
/// surrounding statement neutralizes the order.
fn hash_iter(path: &str, lexed: &Lexed, test_mask: &[bool], raw: &mut Vec<Finding>) {
    let tokens = &lexed.tokens;
    let hash_idents = collect_hash_idents(tokens);
    if hash_idents.is_empty() {
        return;
    }
    for j in 0..tokens.len() {
        if test_mask[j] {
            continue;
        }
        let t = &tokens[j];
        // `hash.iter()` and friends.
        if t.kind == TokenKind::Ident
            && ITER_METHODS.contains(&t.text.as_str())
            && j >= 2
            && tokens[j - 1].is_punct('.')
            && tokens[j - 2].kind == TokenKind::Ident
            && hash_idents.contains(&tokens[j - 2].text)
            && tokens.get(j + 1).is_some_and(|n| n.is_punct('('))
        {
            if !statement_neutralizes(tokens, j) {
                raw.push(finding(
                    path,
                    t.line,
                    "hash-iter",
                    format!(
                        "`{}.{}()` feeds ordered output without a sort — hash iteration \
                         order is arbitrary",
                        tokens[j - 2].text,
                        t.text
                    ),
                ));
            }
            continue;
        }
        // `for x in &hash { … }`.
        if t.is_ident("for") {
            let Some(in_pos) = tokens[j..].iter().position(|t| t.is_ident("in")) else {
                continue;
            };
            let in_abs = j + in_pos;
            let Some(body_open) = tokens[in_abs..]
                .iter()
                .position(|t| t.is_punct('{'))
                .map(|p| in_abs + p)
            else {
                continue;
            };
            let header = &tokens[in_abs + 1..body_open];
            let over_hash = header.iter().enumerate().any(|(k, h)| {
                h.kind == TokenKind::Ident
                    && hash_idents.contains(&h.text)
                    // Direct iteration, not `hash.values().sum()` (that
                    // form is caught and judged by the branch above).
                    && !header.get(k + 1).is_some_and(|n| n.is_punct('.'))
            });
            if !over_hash {
                continue;
            }
            let Some(body_close) = matching(tokens, body_open, '{', '}') else {
                continue;
            };
            let body = &tokens[body_open..body_close];
            let sinks = body
                .iter()
                .any(|b| b.kind == TokenKind::Ident && ORDER_SINKS.contains(&b.text.as_str()));
            if sinks {
                raw.push(finding(
                    path,
                    t.line,
                    "hash-iter",
                    "`for` over a hash collection writes ordered output — iteration order \
                     is arbitrary"
                        .to_string(),
                ));
            }
        }
    }
}

/// Identifiers bound to `HashMap`/`HashSet` in this file, by declaration
/// patterns: `name: [&][mut] HashMap<…>` and `[let [mut]] name =
/// HashMap::new/with_capacity/from…`.
fn collect_hash_idents(tokens: &[Token]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for j in 0..tokens.len() {
        let t = &tokens[j];
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over `&`, `mut`, `:` / `=`, `::`-paths
        // (`std::collections::HashMap`), to the bound identifier.
        let mut k = j;
        while k >= 1 {
            let prev = &tokens[k - 1];
            if prev.is_punct('&') || prev.is_ident("mut") || prev.is_punct('<') {
                k -= 1;
            } else if prev.is_punct(':') {
                // Could be `name:` or a `::` path segment.
                if k >= 2 && tokens[k - 2].is_punct(':') {
                    if k >= 3 && tokens[k - 3].kind == TokenKind::Ident {
                        k -= 3; // path segment `seg::`
                        continue;
                    }
                    break;
                }
                k -= 1;
            } else if prev.is_punct('=') || prev.kind == TokenKind::Ident {
                k -= 1;
                if prev.kind == TokenKind::Ident {
                    out.insert(prev.text.clone());
                    break;
                }
            } else {
                break;
            }
        }
    }
    out
}

/// Does the statement containing the iteration at token `j` neutralize
/// hash order? Scans forward to the end of the statement (`;` / `{` at
/// nesting depth 0) looking for sorts, commutative reductions, or
/// collects into unordered/self-ordering collections.
fn statement_neutralizes(tokens: &[Token], j: usize) -> bool {
    let mut depth = 0i32;
    let mut k = j;
    let mut stmt_end = tokens.len();
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                // End of an enclosing call: `f(hash.iter())` — judge the
                // rest of the outer statement too.
                depth = 0;
            }
        } else if t.is_punct('{') && depth <= 0 {
            // The iteration is a `for`/`while` header (or match
            // scrutinee): the *body* decides. Order-insensitive bodies
            // (counter maps, hash inserts) are fine; ordered sinks are
            // not.
            let Some(close) = matching(tokens, k, '{', '}') else {
                return false;
            };
            return !tokens[k..close]
                .iter()
                .any(|b| b.kind == TokenKind::Ident && ORDER_SINKS.contains(&b.text.as_str()));
        } else if (t.is_punct(';') || t.is_punct('}')) && depth <= 0 {
            stmt_end = k;
            break;
        } else if t.kind == TokenKind::Ident {
            if NEUTRALIZERS.contains(&t.text.as_str()) {
                return true;
            }
            if t.text == "collect" || t.text == "extend" || t.text == "clone_from_iter" {
                // Ordered target? `collect::<Vec…>` is order-sensitive,
                // hash/BTree targets are not. Without a turbofish the
                // target is unknowable here — be conservative.
                let turbofish = &tokens[k..tokens.len().min(k + 8)];
                if turbofish.iter().any(|t| {
                    t.is_ident("HashMap")
                        || t.is_ident("HashSet")
                        || t.is_ident("BTreeMap")
                        || t.is_ident("BTreeSet")
                }) {
                    return true;
                }
            }
        }
        k += 1;
    }
    // Also neutral: the iteration feeds `.extend` / `merge` of another
    // hash collection, detectable from the statement head: look back to
    // the statement start for `hashident.extend(`.
    let mut b = j;
    while b > 0
        && !tokens[b - 1].is_punct(';')
        && !tokens[b - 1].is_punct('{')
        && !tokens[b - 1].is_punct('}')
    {
        b -= 1;
        if tokens[b].is_ident("extend")
            && b >= 2
            && tokens[b - 1].is_punct('.')
            && tokens[b - 2].kind == TokenKind::Ident
        {
            return true;
        }
    }
    // The canonical sort-after-collect idiom:
    //   let mut v: Vec<_> = hash.into_iter().collect();
    //   v.sort_unstable_by(…);
    // The binding is sorted in a *later* statement of the same block.
    if let Some(name) = let_binding_name(tokens, b) {
        let mut depth = 0i32;
        let mut k = stmt_end;
        while k + 2 < tokens.len() {
            k += 1;
            let t = &tokens[k];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    break; // end of the enclosing block
                }
            } else if t.is_ident(name)
                && tokens[k + 1].is_punct('.')
                && tokens[k + 2].text.starts_with("sort")
            {
                return true;
            }
        }
    }
    false
}

/// If the statement starting at token `start` is `let [mut] name = …`,
/// the bound name.
fn let_binding_name(tokens: &[Token], start: usize) -> Option<&str> {
    let mut k = start;
    if !tokens.get(k)?.is_ident("let") {
        return None;
    }
    k += 1;
    if tokens.get(k)?.is_ident("mut") {
        k += 1;
    }
    let name = tokens.get(k)?;
    (name.kind == TokenKind::Ident).then_some(name.text.as_str())
}

// ---------------------------------------------------------------------

/// Convenience used by fixture tests: lint a file on disk.
pub fn lint_path(path: &Path) -> std::io::Result<FileReport> {
    let source = std::fs::read_to_string(path)?;
    Ok(lint_file(&path.display().to_string(), &source))
}

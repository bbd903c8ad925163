//! The two text parsers never panic, whatever their input.
//!
//! `skinny_graph::io::{parse_graph, parse_database}` read the gSpan-style
//! graph files, and `ServingRequest::parse` reads the serving request
//! language.  Both face untrusted text, so each call must return `Ok` or a
//! typed error.  The inputs are arbitrary byte strings (decoded as lossy
//! UTF-8) and token soups built from each grammar's own keywords, separators
//! and integers up to `u64::MAX`.

use proptest::prelude::*;
use skinny_graph::io::{parse_database, parse_graph};
use skinny_graph::GraphError;
use skinnymine::{MineError, ServingRequest};
use std::panic::catch_unwind;

/// Integers that straddle every width the parsers read: small ids, the
/// `u32` edge, and the full `u64` range.
fn any_integer() -> impl Strategy<Value = String> {
    (0u8..6, 0u64..=u64::MAX).prop_map(|(kind, x)| {
        let n = match kind {
            0 => x % 4,
            1 => x % 64,
            2 => u32::MAX as u64 - x % 2,
            3 => u32::MAX as u64 + 1 + x % 2,
            4 => u64::MAX - x % 2,
            _ => x,
        };
        n.to_string()
    })
}

/// Arbitrary bytes, decoded as lossy UTF-8.
fn any_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..=255, 0..96).prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Tokens drawn from `vocabulary` or integers, each followed by a separator
/// from `separators` (which may glue tokens together).
fn token_soup(
    vocabulary: &'static [&'static str],
    separators: &'static [&'static str],
) -> impl Strategy<Value = String> {
    let token =
        (0..vocabulary.len() + 2, any_integer(), 0..separators.len()).prop_map(move |(pick, number, sep)| {
            let word = if pick < vocabulary.len() { vocabulary[pick].to_string() } else { number };
            word + separators[sep]
        });
    proptest::collection::vec(token, 0..24).prop_map(|tokens| tokens.concat())
}

const GRAPH_WORDS: &[&str] = &["t", "v", "e", "#", "-1", "x"];
const GRAPH_SEPARATORS: &[&str] = &[" ", " ", "\n", "\t", "", "\r\n"];
const REQUEST_WORDS: &[&str] = &[
    "l=", "l>=", "..", "delta=", "sigma=", "top=", "require=", "forbid=", "report=", ",", "=", "all",
    "closed", "maximal",
];
const REQUEST_SEPARATORS: &[&str] = &["", "", " ", "\n"];

/// Requests shaped as `key=value` clauses over the language's keys, with
/// values that are integers, ranges, lists or report words — most are
/// rejected, but a share parse, so the deeper paths run too.
fn request_clauses() -> impl Strategy<Value = String> {
    const KEYS: &[&str] = &["l", "l>", "delta", "sigma", "top", "require", "forbid", "report"];
    const WORDS: &[&str] = &["all", "closed", "maximal", ""];
    let clause = (0..KEYS.len(), 0u8..8, any_integer(), any_integer(), 0..WORDS.len()).prop_map(
        |(key, shape, a, b, word)| {
            let value = match shape {
                0..=3 => a,
                4 => format!("{a}..{b}"),
                5 => format!("{a},{b}"),
                _ => WORDS[word].to_string(),
            };
            format!("{}={value}", KEYS[key])
        },
    );
    (0u8..16, proptest::collection::vec(clause, 0..4)).prop_map(|(required, extra)| {
        // the required clauses l, delta and sigma with small values (all
        // three in half the cases), in front of the random clauses
        let mask = if required < 8 { 7 } else { required - 8 };
        let mut clauses: Vec<String> = ["l=2", "delta=2", "sigma=2"]
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, c)| c.to_string())
            .collect();
        clauses.extend(extra);
        clauses.join(" ")
    })
}

/// Runs both graph parsers on `text`; fails on a panic.
fn graph_parsers_return(text: &str) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(|| (parse_graph(text), parse_database(text)));
    prop_assert!(outcome.is_ok(), "a graph parser panicked on {:?}", text);
    let (graph, database) = outcome.unwrap_or_else(|_| unreachable!());
    for err in [graph.err(), database.err()].into_iter().flatten() {
        prop_assert!(
            matches!(err, GraphError::Parse { .. }),
            "untyped parse failure {:?} on {:?}",
            err,
            text
        );
    }
    Ok(())
}

/// Runs the request parser on `text`; fails on a panic.
fn request_parser_returns(text: &str) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(|| ServingRequest::parse(text));
    prop_assert!(outcome.is_ok(), "ServingRequest::parse panicked on {:?}", text);
    if let Ok(Err(err)) = outcome {
        prop_assert!(
            matches!(err, MineError::InvalidConfig { .. }),
            "untyped parse failure {:?} on {:?}",
            err,
            text
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn graph_parsers_never_panic_on_bytes(text in any_text()) {
        graph_parsers_return(&text)?;
    }

    #[test]
    fn graph_parsers_never_panic_on_token_soup(text in token_soup(GRAPH_WORDS, GRAPH_SEPARATORS)) {
        graph_parsers_return(&text)?;
    }

    #[test]
    fn request_parser_never_panics_on_bytes(text in any_text()) {
        request_parser_returns(&text)?;
    }

    #[test]
    fn request_parser_never_panics_on_token_soup(text in token_soup(REQUEST_WORDS, REQUEST_SEPARATORS)) {
        request_parser_returns(&text)?;
    }

    #[test]
    fn request_parser_never_panics_on_clauses(text in request_clauses()) {
        request_parser_returns(&text)?;
    }
}

/// The generated inputs must reach the parsers' accepting paths, or the
/// properties above would only ever exercise the first rejection.
#[test]
fn generated_inputs_reach_accepting_paths() {
    let mut rng = proptest::test_runner::TestRng::new(0x5eed);
    let graphs = token_soup(GRAPH_WORDS, GRAPH_SEPARATORS);
    let requests = request_clauses();
    let mut graphs_ok = 0;
    let mut requests_ok = 0;
    for _ in 0..2000 {
        graphs_ok += usize::from(parse_database(&graphs.generate(&mut rng)).is_ok());
        requests_ok += usize::from(ServingRequest::parse(&requests.generate(&mut rng)).is_ok());
    }
    eprintln!("accepted: {graphs_ok} graph soups, {requests_ok} request clause lists of 2000 each");
    assert!(graphs_ok >= 20, "only {graphs_ok} of 2000 graph soups parsed");
    assert!(requests_ok >= 20, "only {requests_ok} of 2000 clause lists parsed");
    // the integer edges are typed errors, not panics
    assert!(parse_database("t # 0\nv 0 4294967295\nv 1 1\ne 0 1 4294967295\n").is_ok());
    assert!(parse_database("t # 0\nv 0 4294967296\n").is_err());
    assert!(ServingRequest::parse("l>=3 delta=2 sigma=18446744073709551615").is_ok());
    assert!(ServingRequest::parse("l=18446744073709551616 delta=1 sigma=1").is_err());
}

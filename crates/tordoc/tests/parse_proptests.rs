//! Property-based tests of the document parsers. Votes, consensuses
//! and diffs reach them from sockets (`dircached` clients) and files
//! (`--fetch-mix`), so whatever text arrives — a valid document with
//! bytes flipped, cut short, lines dropped or repeated, a field
//! swapped for a hostile token, arbitrary UTF-8 spliced in — `parse`
//! answers `Ok` or `Err`, never a panic, and so does applying any diff
//! that still parses onto its base.

use partialtor_tordoc::prelude::*;
use proptest::prelude::*;
use proptest::sample::Index;
use std::sync::OnceLock;

/// A signed base consensus and one valid encoding per parsed kind: a
/// vote, that consensus, and the diff from it to a churned successor.
fn documents() -> &'static (Consensus, [String; 3]) {
    static DOCS: OnceLock<(Consensus, [String; 3])> = OnceLock::new();
    DOCS.get_or_init(|| {
        let population = generate_population(&PopulationConfig { seed: 7, count: 12 });
        let committee = AuthoritySet::with_size(7, 4);
        let votes: Vec<Vote> = committee
            .iter()
            .map(|auth| {
                Vote::new(
                    VoteMeta::standard(auth.id, &auth.name, auth.fingerprint_hex(), 3_600),
                    authority_view(&population, auth.id, 7, &ViewConfig::default()),
                )
            })
            .collect();
        let mut base = aggregate(&votes.iter().collect::<Vec<_>>());
        for auth in committee.iter() {
            base.sign(auth.id, &auth.signing_key);
        }
        let mut next = base.clone();
        next.meta.valid_after += 3_600;
        next.entries.remove(0);
        next.entries[0].bandwidth = Some(1);
        let diff = ConsensusDiff::compute(&base, &next);
        let texts = [votes[0].encode(), base.encode(), diff.encode()];
        (base, texts)
    })
}

/// Tokens hand-written field parsers tend to trip on: empty,
/// overflowing, signed, non-ASCII, and half-formed ranges and versions.
const HOSTILE: [&str; 10] = [
    "",
    "99999999999999999999999",
    "-1",
    "é\u{fffd}",
    "0-",
    "1-2-3",
    ",",
    "Tor 1.2.3",
    "accept",
    "0.0.0.256",
];

/// Kinds 0–2 edit bytes (flip, truncate, splice junk; decoded lossily),
/// 3–5 edit lines (drop, repeat elsewhere, swap one field for a token).
fn mutate(text: &str, kind: u8, a: Index, b: Index, junk: &[u8]) -> String {
    if kind < 3 {
        let mut bytes = text.as_bytes().to_vec();
        let at = a.index(bytes.len());
        match kind {
            0 => bytes[at] = junk[0],
            1 => bytes.truncate(at),
            _ => drop(bytes.splice(at..at, junk.iter().copied())),
        }
        return String::from_utf8_lossy(&bytes).into_owned();
    }
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let line = a.index(lines.len());
    match kind {
        3 => drop(lines.remove(line)),
        4 => lines.insert(b.index(lines.len()), lines[line].clone()),
        _ => {
            let mut fields: Vec<&str> = lines[line].split(' ').collect();
            let field = b.index(fields.len());
            fields[field] = HOSTILE[junk[0] as usize % HOSTILE.len()];
            lines[line] = fields.join(" ");
        }
    }
    lines.join("\n")
}

/// Runs every parser over `text`; a diff that parses is applied too.
fn parse_all(base: &Consensus, text: &str) {
    let _ = Vote::parse(text);
    let _ = Consensus::parse(text);
    if let Ok(diff) = ConsensusDiff::parse(text) {
        let _ = diff.apply(base);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Each mutation of each valid document parses or fails cleanly.
    #[test]
    fn mutated_documents_never_panic(
        doc in 0usize..3,
        kind in 0u8..6,
        a in any::<Index>(),
        b in any::<Index>(),
        junk in proptest::collection::vec(any::<u8>(), 1..48),
    ) {
        let (base, texts) = documents();
        parse_all(base, &mutate(&texts[doc], kind, a, b, &junk));
    }

    /// Arbitrary text (lossily decoded bytes, newlines included) does too.
    #[test]
    fn arbitrary_text_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        parse_all(&documents().0, &String::from_utf8_lossy(&bytes));
    }
}

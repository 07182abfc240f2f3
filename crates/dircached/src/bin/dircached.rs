//! `dircached` — run the directory-cache daemon standalone.
//!
//! Builds a deterministic consensus series, publishes it into a
//! [`ServingStore`], and serves it until `--serve-secs` elapses (or
//! forever with `--serve-secs 0`). With `--publish-every N` the series
//! is published incrementally while serving, so clients see live
//! document churn. Prints `dircached listening on <addr>` once bound —
//! CI captures the ephemeral port from that line.

use partialtor_dircached::{consensus_series, Daemon, DaemonConfig, DocSetConfig, ServingStore};
use partialtor_obs::cli::{int_flag, secs_flag, text_flag, Args, Command, FlagSpec, MAX_THREADS};
use std::sync::Arc;
use std::time::Duration;

/// Most relays per document: ten times the paper's 10 000-relay sweep.
const MAX_RELAYS: u64 = 100_000;

/// Most documents: a week of hours (2⁶⁴ − 1 overflowed the population).
const MAX_HISTORY: u64 = 7 * 24;

/// Deepest accept queue: sixteen times Linux's default listen backlog.
const MAX_PENDING: u64 = 65_536;

#[rustfmt::skip]
const FLAGS: &[FlagSpec] = &[
    text_flag("--addr", "HOST:PORT", "bind address (default 127.0.0.1:0 = ephemeral)"),
    int_flag("--relays", "N", 0, MAX_RELAYS, "relays per document (default 500)"),
    int_flag("--history", "N", 1, MAX_HISTORY, "documents in the series (default 4)"),
    int_flag("--churn", "N", 0, MAX_RELAYS, "relays churned per hour (default 10)"),
    int_flag("--retain", "N", 0, MAX_HISTORY, "diff bases retained (default 3)"),
    int_flag("--seed", "N", 0, u64::MAX, "population seed (default 7)"),
    int_flag("--workers", "N", 0, MAX_THREADS, "worker threads, 0 = per core (default 0)"),
    int_flag("--max-pending", "N", 1, MAX_PENDING,
        "accept queue depth before shedding 503s (default 64)"),
    secs_flag("--publish-every", 0.0,
        "publish the next document every SECS (default 0 = all up front)"),
    secs_flag("--serve-secs", 0.0, "exit after SECS; 0 = serve forever (default 0)"),
];

const COMMAND: Command = Command {
    name: "dircached",
    about: "serve a deterministic consensus series over TCP",
    tables: &[FLAGS],
};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args: Args = COMMAND.parse_or_exit(&raw);
    let publish_every = args.secs("--publish-every", Duration::ZERO);
    let serve_secs = args.secs("--serve-secs", Duration::ZERO);

    let series = DocSetConfig::default();
    let docs = consensus_series(&DocSetConfig {
        seed: args.u64("--seed", series.seed),
        relays: args.u64("--relays", series.relays as u64) as usize,
        history: args.u64("--history", series.history as u64) as usize,
        churn_per_hour: args.u64("--churn", series.churn_per_hour as u64) as usize,
    });
    let store = Arc::new(ServingStore::new(args.u64("--retain", 3) as usize));

    // Publish everything up front, or hold documents back for the
    // incremental-publish loop below.
    let up_front = if publish_every.is_zero() {
        docs.len()
    } else {
        1
    };
    for doc in &docs[..up_front] {
        store.publish(doc.clone());
    }

    let defaults = DaemonConfig::default();
    let config = DaemonConfig {
        addr: args.text("--addr").unwrap_or(&defaults.addr).to_string(),
        workers: args.u64("--workers", defaults.workers as u64) as usize,
        max_pending: args.u64("--max-pending", defaults.max_pending as u64) as usize,
        ..defaults
    };
    let addr = config.addr.clone();
    let daemon = match Daemon::start(config, store.clone()) {
        Ok(daemon) => daemon,
        Err(error) => {
            eprintln!("dircached: bind {addr}: {error}");
            std::process::exit(1);
        }
    };
    println!("dircached listening on {}", daemon.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let started = std::time::Instant::now();
    for doc in &docs[up_front..] {
        std::thread::sleep(publish_every);
        store.publish(doc.clone());
        if !serve_secs.is_zero() && started.elapsed() >= serve_secs {
            return;
        }
    }
    if serve_secs.is_zero() {
        // Nothing left to publish and no deadline: serve forever.
        loop {
            std::thread::park();
        }
    }
    std::thread::sleep(serve_secs.saturating_sub(started.elapsed()));
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_bounded_flag_rejects_values_past_its_bounds() {
        assert_eq!(super::COMMAND.misjudged_values(), Vec::<String>::new());
    }
}

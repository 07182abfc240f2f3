//! `dircached` — run the directory-cache daemon standalone.
//!
//! Builds a deterministic consensus series, publishes it into a
//! [`ServingStore`], and serves it until `--serve-secs` elapses (or
//! forever with `--serve-secs 0`). With `--publish-every N` the series
//! is published incrementally while serving, so clients see live
//! document churn. Prints `dircached listening on <addr>` once bound —
//! CI captures the ephemeral port from that line.

use partialtor_dircached::cli::{parse, parse_secs};
use partialtor_dircached::{consensus_series, Daemon, DaemonConfig, DocSetConfig, ServingStore};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
usage: dircached [options]

Serve a deterministic consensus series over TCP.

options:
  --addr HOST:PORT     bind address (default 127.0.0.1:0 = ephemeral)
  --relays N           relays per document (default 500)
  --history N          documents in the series (default 4)
  --churn N            relays churned per hour (default 10)
  --retain N           diff bases retained (default 3)
  --seed N             population seed (default 7)
  --workers N          worker threads, 0 = per core (default 0)
  --max-pending N      accept queue depth before shedding 503s (default 64)
  --publish-every SECS publish the next document every SECS while serving
                       (default 0 = publish the whole series up front)
  --serve-secs SECS    exit after SECS; 0 = serve forever (default 0)
  --help               this text
";

struct Args {
    addr: String,
    relays: usize,
    history: usize,
    churn: usize,
    retain: usize,
    seed: u64,
    workers: usize,
    max_pending: usize,
    publish_every: Duration,
    serve_secs: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        relays: 500,
        history: 4,
        churn: 10,
        retain: 3,
        seed: 7,
        workers: 0,
        max_pending: 64,
        publish_every: Duration::ZERO,
        serve_secs: Duration::ZERO,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--help" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--relays" => args.relays = parse(&value("--relays")?, "--relays")?,
            "--history" => args.history = parse(&value("--history")?, "--history")?,
            "--churn" => args.churn = parse(&value("--churn")?, "--churn")?,
            "--retain" => args.retain = parse(&value("--retain")?, "--retain")?,
            "--seed" => args.seed = parse(&value("--seed")?, "--seed")?,
            "--workers" => args.workers = parse(&value("--workers")?, "--workers")?,
            "--max-pending" => args.max_pending = parse(&value("--max-pending")?, "--max-pending")?,
            "--publish-every" => {
                args.publish_every = parse_secs(&value("--publish-every")?, "--publish-every")?
            }
            "--serve-secs" => {
                args.serve_secs = parse_secs(&value("--serve-secs")?, "--serve-secs")?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.history == 0 {
        return Err("--history must be at least 1".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("dircached: {error}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let docs = consensus_series(&DocSetConfig {
        seed: args.seed,
        relays: args.relays,
        history: args.history,
        churn_per_hour: args.churn,
    });
    let store = Arc::new(ServingStore::new(args.retain));

    // Publish everything up front, or hold documents back for the
    // incremental-publish loop below.
    let up_front = if !args.publish_every.is_zero() {
        1
    } else {
        docs.len()
    };
    for doc in &docs[..up_front] {
        store.publish(doc.clone());
    }

    let daemon = match Daemon::start(
        DaemonConfig {
            addr: args.addr.clone(),
            workers: args.workers,
            max_pending: args.max_pending,
            ..DaemonConfig::default()
        },
        store.clone(),
    ) {
        Ok(daemon) => daemon,
        Err(error) => {
            eprintln!("dircached: bind {}: {error}", args.addr);
            std::process::exit(1);
        }
    };
    println!("dircached listening on {}", daemon.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let started = std::time::Instant::now();
    let mut published = up_front;
    loop {
        let step = if !args.publish_every.is_zero() && published < docs.len() {
            args.publish_every
        } else if !args.serve_secs.is_zero() {
            Duration::from_millis(250)
        } else {
            // Nothing left to publish and no deadline: park forever.
            std::thread::park();
            continue;
        };
        std::thread::sleep(step);
        if !args.publish_every.is_zero() && published < docs.len() {
            store.publish(docs[published].clone());
            published += 1;
        }
        if !args.serve_secs.is_zero() && started.elapsed() >= args.serve_secs {
            break;
        }
    }
    drop(daemon);
}

//! The directory-cache daemon: a std-only TCP serving loop.
//!
//! One accept thread feeds a *bounded* queue of connections; a
//! thread-per-core worker pool drains it. When the queue is full the
//! accept thread answers the connection itself with an immediate
//! `503 Service Unavailable` and closes it — load is shed visibly (a
//! counter and a trace event), never left to time out in a backlog the
//! daemon pretends not to have. Workers parse one request per
//! connection ([`proto::parse_request`]), look the answer up in the
//! shared [`ServingStore`] (the read lock is held only to clone the
//! current snapshot's `Arc`; no I/O under it), write it, and record the request latency in a
//! `partialtor-obs` histogram plus an `http_request` trace event.
//!
//! `/metrics` is answered by the daemon itself from its [`Registry`]
//! snapshot through the workspace's one JSON writer
//! ([`partialtor_obs::json`]), as `dirload --metrics` is.

use crate::proto::{self, DocRequest, Parsed, ResponseHead, MAX_REQUEST_BYTES};
use crate::store::ServingStore;
use partialtor_obs::{Json, MetricsSnapshot, Registry, TraceEvent, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`Daemon::local_addr`]).
    pub addr: String,
    /// Worker threads; 0 means one per available core.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker before new
    /// arrivals are shed with `503`.
    pub max_pending: usize,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Request metrics sink (share it to read the counters back).
    pub registry: Registry,
    /// Trace sink for `http_request` events (disabled by default).
    pub tracer: Tracer,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            max_pending: 64,
            io_timeout: Duration::from_secs(5),
            registry: Registry::new(),
            tracer: Tracer::disabled(),
        }
    }
}

/// The bounded handoff between the accept thread and the workers.
struct ConnQueue {
    queue: Mutex<(VecDeque<TcpStream>, bool)>,
    ready: Condvar,
    capacity: usize,
}

impl ConnQueue {
    fn new(capacity: usize) -> Self {
        ConnQueue {
            queue: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues the connection, or hands it back when the queue is full
    /// (the caller sheds it).
    fn offer(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut guard = self.queue.lock().expect("conn queue");
        if guard.0.len() >= self.capacity {
            return Err(stream);
        }
        guard.0.push_back(stream);
        drop(guard);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once closed and drained.
    fn take(&self) -> Option<TcpStream> {
        let mut guard = self.queue.lock().expect("conn queue");
        loop {
            if let Some(stream) = guard.0.pop_front() {
                return Some(stream);
            }
            if guard.1 {
                return None;
            }
            guard = self.ready.wait(guard).expect("conn queue");
        }
    }

    fn close(&self) {
        self.queue.lock().expect("conn queue").1 = true;
        self.ready.notify_all();
    }
}

/// A running daemon; dropping it (or calling [`Daemon::shutdown`])
/// stops the listener and joins every thread.
pub struct Daemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds, spawns the accept thread and the worker pool, and returns
    /// immediately.
    pub fn start(config: DaemonConfig, store: Arc<ServingStore>) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(4)
        } else {
            config.workers
        };
        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(ConnQueue::new(config.max_pending));
        let started = Instant::now();
        let mut threads = Vec::with_capacity(workers + 1);

        for _ in 0..workers {
            let queue = queue.clone();
            let store = store.clone();
            let registry = config.registry.clone();
            let tracer = config.tracer.clone();
            let io_timeout = config.io_timeout;
            threads.push(thread::spawn(move || {
                while let Some(stream) = queue.take() {
                    handle_connection(stream, &store, &registry, &tracer, io_timeout, started);
                }
            }));
        }

        {
            let stop = stop.clone();
            let queue = queue.clone();
            let registry = config.registry.clone();
            let tracer = config.tracer.clone();
            threads.push(thread::spawn(move || {
                for incoming in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = incoming else { continue };
                    if let Err(shed) = queue.offer(stream) {
                        shed_connection(shed, &registry, &tracer, started);
                    }
                }
            }));
        }

        Ok(Daemon {
            addr,
            stop,
            queue,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains queued connections, joins every thread.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with one last connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        self.queue.close();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answers a connection the queue refused: an immediate 503, counted
/// and traced, so the load generator sees shed load rather than a
/// timeout.
fn shed_connection(mut stream: TcpStream, registry: &Registry, tracer: &Tracer, started: Instant) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let head = ResponseHead {
        status: 503,
        served: "shed",
        digest: None,
        body_len: 0,
    };
    let _ = stream.write_all(head.encode().as_bytes());
    registry.inc("dircached.shed", 1);
    tracer.emit(TraceEvent::HttpRequest {
        at_secs: started.elapsed().as_secs_f64(),
        status: 503,
        served: "shed",
        bytes: 0,
    });
}

/// Reads one request (incrementally, bounded by [`MAX_REQUEST_BYTES`]),
/// answers it, records latency + class counters + a trace event.
fn handle_connection(
    mut stream: TcpStream,
    store: &ServingStore,
    registry: &Registry,
    tracer: &Tracer,
    io_timeout: Duration,
    started: Instant,
) {
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let begin = Instant::now();

    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 1024];
    let request = loop {
        match proto::parse_request(&buf) {
            Parsed::Request(request, _) => break Ok(request),
            Parsed::Bad(status) => break Err(status),
            Parsed::NeedMore => {}
        }
        match stream.read(&mut chunk) {
            Ok(0) => break Err(400),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => {
                // Read timeout or reset: nothing sensible to answer.
                registry.inc("dircached.read_errors", 1);
                return;
            }
        }
        if buf.len() > MAX_REQUEST_BYTES {
            break Err(414);
        }
    };

    let (status, served, body, digest) = match request {
        Err(status) => (status, "error", Arc::new(Vec::new()), None),
        Ok(DocRequest::Metrics) => {
            let body = metrics_json(&registry.snapshot()).into_bytes();
            (200, "metrics", Arc::new(body), None)
        }
        Ok(request) => {
            let outcome = store.serve(&request);
            (outcome.status, outcome.served, outcome.body, outcome.digest)
        }
    };

    let head = ResponseHead {
        status,
        served,
        digest,
        body_len: body.len(),
    };
    let sent = stream
        .write_all(head.encode().as_bytes())
        .and_then(|()| stream.write_all(&body))
        .is_ok();

    let elapsed = begin.elapsed().as_secs_f64();
    registry.observe("dircached.request_secs", elapsed);
    registry.inc("dircached.requests", 1);
    registry.inc(&format!("dircached.served.{served}"), 1);
    if !sent {
        registry.inc("dircached.write_errors", 1);
    }
    if status >= 400 {
        registry.inc("dircached.errors", 1);
    }
    registry.inc("dircached.payload_bytes", body.len() as u64);
    tracer.emit(TraceEvent::HttpRequest {
        at_secs: started.elapsed().as_secs_f64(),
        status: status as u64,
        served,
        bytes: body.len() as u64,
    });
}

/// Renders a metrics snapshot as JSON: counters and gauges verbatim,
/// histograms summarized to count/mean/p50/p90/p99.
pub fn metrics_json(snapshot: &MetricsSnapshot) -> String {
    fn table<V>(map: &BTreeMap<String, V>, value: impl Fn(&V) -> Json) -> Json {
        Json::Obj(map.iter().map(|(k, v)| (k.clone(), value(v))).collect())
    }
    Json::obj([
        ("counters", table(&snapshot.counters, |&n| n.into())),
        ("gauges", table(&snapshot.gauges, |&g| g.into())),
        (
            "histograms",
            table(&snapshot.histograms, |hist| {
                Json::obj([
                    ("count", hist.count().into()),
                    ("mean_secs", hist.mean_secs().into()),
                    ("p50_secs", hist.p50().into()),
                    ("p90_secs", hist.p90().into()),
                    ("p99_secs", hist.p99().into()),
                ])
            }),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_json_is_well_formed() {
        let registry = Registry::new();
        registry.inc("dircached.requests", 3);
        registry.set_gauge("uptime_secs", 1.5);
        registry.observe("dircached.request_secs", 0.010);
        let json = metrics_json(&registry.snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"dircached.requests\":3"));
        assert!(json.contains("\"count\":1"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn queue_sheds_beyond_capacity_and_drains_on_close() {
        let queue = ConnQueue::new(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let b = TcpStream::connect(addr).unwrap();
        assert!(queue.offer(a).is_ok());
        assert!(queue.offer(b).is_err(), "second offer must bounce");
        queue.close();
        assert!(queue.take().is_some(), "queued conn drains after close");
        assert!(queue.take().is_none());
    }
}

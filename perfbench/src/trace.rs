//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the program
//! (and inside closures and hooks the benchmark owns), never inside the
//! program itself. Each span has a name, start, end, the span that caused
//! it and an optional request id. Recording is off unless [`enable`] was
//! called; a disabled recorder costs one relaxed atomic load per span.
//! Spans stay in memory until [`take`], and [`chrome_json`] writes them as
//! Chrome trace-event JSON, which Perfetto opens.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// Free-form qualifier such as the tenant name.
    pub label: &'static str,
    pub req: Option<u64>,
    pub start: Instant,
    pub end: Instant,
    pub tid: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// Parent for spans opened on threads the benchmark does not drive
/// (server workers calling a tenant factory).
static PHASE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The instant trace timestamps count from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Switches recording on or off.
pub fn enable(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Records a span whose bounds the caller measured; returns its id (0
/// when recording is off).
pub fn record(
    name: &'static str,
    label: &'static str,
    parent: u64,
    req: Option<u64>,
    start: Instant,
    end: Instant,
) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let span = Span {
        id,
        parent,
        name,
        label,
        req,
        start,
        end,
        tid: tid(),
    };
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    id
}

/// An open span, recorded when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    label: &'static str,
    req: Option<u64>,
    start: Instant,
}

impl Guard {
    /// This span's id, for children to name as their parent (0 when
    /// recording is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            label: self.label,
            req: self.req,
            start: self.start,
            end: Instant::now(),
            tid: tid(),
        };
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Opens a span under `parent` that ends when the guard drops.
pub fn open(name: &'static str, label: &'static str, parent: u64) -> Guard {
    let id = if enabled() {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    };
    Guard {
        id,
        parent,
        name,
        label,
        req: None,
        start: Instant::now(),
    }
}

/// Opens a phase span and makes it the parent of spans opened on threads
/// the benchmark does not drive.
pub fn open_phase(name: &'static str, label: &'static str) -> Guard {
    let g = open(name, label, 0);
    PHASE.store(g.id, Ordering::Relaxed);
    g
}

/// The current phase span id.
pub fn phase() -> u64 {
    PHASE.load(Ordering::Relaxed)
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Spans as Chrome trace-event JSON (complete `X` events, microseconds
/// from [`epoch`]).
pub fn chrome_json(spans: &[Span]) -> String {
    let t0 = epoch();
    let us = |t: Instant| t.saturating_duration_since(t0).as_secs_f64() * 1e6;
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let req = s.req.map_or(String::from("null"), |r| r.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{req}}}}}",
            s.name,
            if s.label.is_empty() { "bench" } else { s.label },
            s.tid,
            us(s.start),
            us(s.end) - us(s.start),
            s.id,
            s.parent,
        ));
    }
    out.push_str("\n]}\n");
    out
}

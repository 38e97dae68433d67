//! Spans around the benchmark's calls into each layer.
//!
//! Every timed call goes through [`timed`], which always returns the
//! call's wall time (the end-to-end metrics need it) and, while a trace
//! is recording, also keeps a span: name, start, end, parent span and
//! request id. Spans stay in memory and are written out as JSONL when
//! the run ends; a layer's self time is its spans' duration minus the
//! part covered by their child spans. The layer of a span is its name
//! up to the first `.`. Spans inside the program are not recorded.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    req: u32,
    start: f64,
    end: f64,
    parent: Option<u32>,
}

struct Trace {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    reqs: Vec<String>,
}

thread_local! {
    static TRACE: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

/// Starts an (empty, paused) trace on this thread.
pub fn install() {
    TRACE.with(|t| {
        *t.borrow_mut() = Some(Trace {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
            reqs: vec!["-".to_string()],
        })
    });
}

/// Turns span recording on or off; a no-op without [`install`].
pub fn set_recording(on: bool) {
    TRACE.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.recording = on;
        }
    });
}

/// Names the request the following spans belong to (problem×rep, step
/// or key). Cheap when not recording.
pub fn request(label: impl FnOnce() -> String) {
    TRACE.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut().filter(|tr| tr.recording) {
            tr.reqs.push(label());
        }
    });
}

/// Runs `f`, returning its result and wall seconds; records a span named
/// `name` while a trace is recording.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let id = TRACE.with(|t| {
        let mut g = t.borrow_mut();
        let tr = g.as_mut().filter(|tr| tr.recording)?;
        let id = tr.spans.len() as u32;
        tr.spans.push(Span {
            name,
            req: (tr.reqs.len() - 1) as u32,
            start: tr.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: tr.open.last().copied(),
        });
        tr.open.push(id);
        Some(id)
    });
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    if let Some(id) = id {
        TRACE.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                tr.spans[id as usize].end = tr.origin.elapsed().as_secs_f64();
                tr.open.pop();
            }
        });
    }
    (out, secs)
}

/// Per span name: (calls, total seconds, self seconds).
pub fn self_times() -> BTreeMap<&'static str, (usize, f64, f64)> {
    TRACE.with(|t| {
        let g = t.borrow();
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        let Some(tr) = g.as_ref() else { return out };
        let mut child = vec![0.0f64; tr.spans.len()];
        for s in &tr.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.end - s.start;
            }
        }
        for (s, c) in tr.spans.iter().zip(&child) {
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += (s.end - s.start - c).max(0.0);
        }
        out
    })
}

/// Writes every span as one JSON line to `path`.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<usize> {
    TRACE.with(|t| {
        let g = t.borrow();
        let Some(tr) = g.as_ref() else { return Ok(0) };
        let mut s = String::with_capacity(tr.spans.len() * 120);
        for (i, sp) in tr.spans.iter().enumerate() {
            let layer = sp.name.split('.').next().unwrap_or(sp.name);
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{layer}\",\"req\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                sp.name, tr.reqs[sp.req as usize], sp.start, sp.end
            );
        }
        std::fs::write(path, s)?;
        Ok(tr.spans.len())
    })
}

//! Tracing from outside the crates: spans recorded by the benchmark's
//! own files around public calls, held in memory and written out when the
//! run ends.
//!
//! The product has no spans of its own yet, so the benchmark assembles
//! the evaluation stack by hand from public parts and puts a
//! [`Traced`] wrapper at the two seams it can reach:
//!
//! ```text
//! client call            Layer::Client    around server.call / Client::post
//!   run                  Layer::Run       ValuationResponse.wall_time
//!     Traced(Parallel…)  Layer::MissBatch the cache-miss batch entering the fan-out
//!       Traced(FlUtility) Layer::FlEval   one sub-batch on a fan-out thread
//! ```
//!
//! A layer's **self time** is the wall-clock its spans cover minus the
//! part of that interval its child layer's spans cover; with concurrent
//! requests the cover is a union of intervals, so each instant of a
//! repetition is attributed to the deepest layer active at that instant
//! and the rows sum to the time covered by client spans.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use fedval_core::coalition::Coalition;
use fedval_core::utility::Utility;
use fedval_serve::json::{Json, Num};

/// The layers a span can belong to, outermost first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Client,
    Run,
    MissBatch,
    FlEval,
}

impl Layer {
    pub const ALL: [Layer; 4] = [Layer::Client, Layer::Run, Layer::MissBatch, Layer::FlEval];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Run => "run",
            Layer::MissBatch => "miss_batch",
            Layer::FlEval => "fl_eval",
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request the span belongs to (`0` when the span serves a flush
    /// shared by several requests and has no single owner).
    pub request: u64,
    /// Index of the enclosing span one layer up, filled by
    /// [`assign_parents`].
    pub parent: Option<usize>,
}

/// A sub-batch seen at the innermost seam, kept for the replay that
/// splits FL evaluation into training and scoring.
#[derive(Clone, Debug)]
pub struct RecordedBatch {
    pub coalitions: Vec<Coalition>,
    pub values: Vec<f64>,
}

/// In-memory span sink shared by the wrappers and the load generator.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    batches: Mutex<Vec<RecordedBatch>>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            batches: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `at` on the recorder's clock (0 for an instant before its origin).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn record(&self, layer: Layer, start_ns: u64, end_ns: u64, request: u64) {
        // A poisoned lock still guards fully-pushed spans.
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Span {
                layer,
                start_ns,
                end_ns: end_ns.max(start_ns),
                request,
                parent: None,
            });
    }

    /// Take every span recorded so far, parents assigned.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans =
            std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner));
        assign_parents(&mut spans);
        spans
    }

    /// Take the sub-batches recorded at the innermost seam.
    pub fn take_batches(&self) -> Vec<RecordedBatch> {
        std::mem::take(&mut *self.batches.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A [`Utility`] wrapper that records one span per `eval`/`eval_batch`
/// call at `layer`, and — at the innermost seam — the batch itself.
pub struct Traced<U> {
    inner: U,
    layer: Layer,
    keep_batches: bool,
    recorder: Arc<Recorder>,
}

impl<U: Utility> Traced<U> {
    pub fn new(inner: U, layer: Layer, recorder: &Arc<Recorder>) -> Traced<U> {
        Traced {
            inner,
            layer,
            keep_batches: layer == Layer::FlEval,
            recorder: Arc::clone(recorder),
        }
    }
}

impl<U: Utility> Utility for Traced<U> {
    fn n_clients(&self) -> usize {
        self.inner.n_clients()
    }

    fn eval(&self, s: Coalition) -> f64 {
        self.eval_batch(std::slice::from_ref(&s))[0]
    }

    fn eval_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
        let start = self.recorder.now_ns();
        let values = self.inner.eval_batch(coalitions);
        self.recorder
            .record(self.layer, start, self.recorder.now_ns(), 0);
        if self.keep_batches {
            self.recorder
                .batches
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(RecordedBatch {
                    coalitions: coalitions.to_vec(),
                    values: values.clone(),
                });
        }
        values
    }
}

/// Give every span below the client layer its parent — the span one
/// layer up that contains its start, the latest-starting one when
/// several do — and let it inherit that parent's request id.
pub fn assign_parents(spans: &mut [Span]) {
    for layer in &Layer::ALL[1..] {
        for i in 0..spans.len() {
            if spans[i].layer != *layer {
                continue;
            }
            let start = spans[i].start_ns;
            let parent = (0..spans.len())
                .filter(|&j| {
                    spans[j].layer as usize + 1 == *layer as usize
                        && spans[j].start_ns <= start
                        && start <= spans[j].end_ns
                })
                .max_by_key(|&j| spans[j].start_ns);
            spans[i].parent = parent;
            if let (0, Some(p)) = (spans[i].request, parent) {
                spans[i].request = spans[p].request;
            }
        }
    }
}

type Intervals = Vec<(u64, u64)>;

/// Union of intervals as a sorted list of disjoint intervals.
fn union(mut intervals: Intervals) -> Intervals {
    intervals.sort_unstable();
    let mut out: Intervals = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Intersection of two sorted disjoint interval lists.
fn intersect(a: &Intervals, b: &Intervals) -> Intervals {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let (s, e) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
        if s < e {
            out.push((s, e));
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

fn total(intervals: &Intervals) -> u64 {
    intervals.iter().map(|(s, e)| e - s).sum()
}

/// Per-layer self times of one traced repetition.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTimes {
    /// Wall-clock covered by client spans — the request span the rows
    /// below account for.
    pub request_span_ns: u64,
    /// Self time per layer, [`Layer::ALL`] order: transport + wire,
    /// service (queue, park, memo, fold), fan-out, FL evaluation.
    pub self_ns: [u64; 4],
}

impl SelfTimes {
    /// Relative gap between the sum of the rows and the request span, in
    /// percent (the acceptance criterion asks for at most 5).
    pub fn sum_gap_pct(&self) -> f64 {
        if self.request_span_ns == 0 {
            return 0.0;
        }
        let sum: u64 = self.self_ns.iter().sum();
        (sum as f64 - self.request_span_ns as f64).abs() / self.request_span_ns as f64 * 100.0
    }
}

/// Self time per layer: the cover of each layer's spans (clipped to the
/// cover of the layer above) minus the cover of the layer below.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut covers: Vec<Intervals> = Vec::with_capacity(Layer::ALL.len());
    for layer in Layer::ALL {
        let own = union(
            spans
                .iter()
                .filter(|s| s.layer == layer)
                .map(|s| (s.start_ns, s.end_ns))
                .collect(),
        );
        let clipped = match covers.last() {
            Some(above) => intersect(above, &own),
            None => own,
        };
        covers.push(clipped);
    }
    let cover: Vec<u64> = covers.iter().map(total).collect();
    let mut self_ns = [0u64; 4];
    for k in 0..4 {
        self_ns[k] = cover[k] - cover.get(k + 1).copied().unwrap_or(0);
    }
    SelfTimes {
        request_span_ns: cover[0],
        self_ns,
    }
}

/// The trace file: every span with name, start, end, parent and request.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.layer.name())),
                    ("start_ns", Json::Num(Num::U64(s.start_ns))),
                    ("end_ns", Json::Num(Num::U64(s.end_ns))),
                    (
                        "parent",
                        match s.parent {
                            Some(p) => Json::Num(Num::U64(p as u64)),
                            None => Json::Null,
                        },
                    ),
                    ("request", Json::Num(Num::U64(s.request))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::utility::TableUtility;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, request: u64) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            request,
            parent: None,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_rows_sum_to_the_request_span() {
        // One request: client 0..100, run 10..90, one miss batch 20..70
        // fanning out to two overlapping FL sub-batches 25..60 and 30..65.
        let mut spans = vec![
            span(Layer::Client, 0, 100, 1),
            span(Layer::Run, 10, 90, 0),
            span(Layer::MissBatch, 20, 70, 0),
            span(Layer::FlEval, 25, 60, 0),
            span(Layer::FlEval, 30, 65, 0),
        ];
        assign_parents(&mut spans);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[4].parent, Some(2));
        assert!(spans.iter().all(|s| s.request == 1), "ids are inherited");
        let t = self_times(&spans);
        assert_eq!(t.request_span_ns, 100);
        assert_eq!(t.self_ns, [20, 30, 10, 40]);
        assert_eq!(t.sum_gap_pct(), 0.0);
    }

    #[test]
    fn concurrent_requests_are_attributed_by_interval_union() {
        // Two overlapping client spans sharing one flush.
        let spans = vec![
            span(Layer::Client, 0, 60, 1),
            span(Layer::Client, 10, 80, 2),
            span(Layer::Run, 5, 60, 1),
            span(Layer::Run, 15, 80, 2),
            span(Layer::MissBatch, 20, 50, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(t.request_span_ns, 80);
        assert_eq!(t.self_ns, [5, 45, 30, 0]);
        // A child poking out of its parent is clipped, never double counted.
        let poking = vec![span(Layer::Client, 10, 20, 1), span(Layer::Run, 0, 30, 1)];
        assert_eq!(self_times(&poking).self_ns, [0, 10, 0, 0]);
        assert_eq!(self_times(&[]).sum_gap_pct(), 0.0);
    }

    #[test]
    fn traced_wrapper_records_spans_and_the_innermost_batches() {
        let recorder = Recorder::new();
        let outer = Traced::new(
            Traced::new(TableUtility::paper_table1(), Layer::FlEval, &recorder),
            Layer::MissBatch,
            &recorder,
        );
        let batch = [Coalition::singleton(0), Coalition::full(3)];
        assert_eq!(outer.eval_batch(&batch), vec![0.50, 0.96]);
        assert_eq!(outer.eval(Coalition::empty()), 0.10);
        let spans = recorder.take_spans();
        assert_eq!(spans.len(), 4);
        let inner: Vec<&Span> = spans.iter().filter(|s| s.layer == Layer::FlEval).collect();
        assert!(inner.iter().all(|s| s.parent.is_some()));
        let batches = recorder.take_batches();
        assert_eq!(batches.len(), 2, "only the innermost seam keeps batches");
        assert_eq!(batches[0].coalitions, batch);
        assert_eq!(batches[0].values, vec![0.50, 0.96]);
        let doc = spans_json(&spans);
        assert_eq!(doc.as_array().map(<[Json]>::len), Some(4));
    }
}

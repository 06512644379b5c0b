//! In-memory span recorder for the traced pass. Spans are taken in the
//! benchmark's own files, around the calls into each layer; they stay in
//! memory and are written out once, when the workload ends.

use crate::json::{self, Json};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// The span that caused this one; `None` for a top-level span.
    pub parent: Option<SpanId>,
    /// Shared by every span of one rep or one job.
    pub group: u64,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Collects spans from any thread; rank threads record into it directly.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Record a finished span.
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        group: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("a recording thread panicked");
        spans.push(Span {
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end).max(self.us(start)),
            parent,
            group,
        });
        spans.len() - 1
    }

    /// Open a span whose children need its id before it ends; finish it with
    /// [`Recorder::close`].
    pub fn open(&self, name: &str, parent: Option<SpanId>, group: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, group, now, now)
    }

    pub fn close(&self, id: SpanId) {
        let end = self.us(Instant::now());
        self.spans.lock().expect("a recording thread panicked")[id].end_us = end;
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        group: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, parent, group, start, Instant::now());
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a recording thread panicked")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its child spans cover. Children that overlap each other (rank threads
/// running side by side) are counted once.
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_us.max(spans[p].start_us),
                s.end_us.min(spans[p].end_us),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_us);
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Summed duration of the top-level spans.
pub fn top_level_us(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_us)
        .sum()
}

/// The span file: every span with its self time.
pub fn to_json(spans: &[Span]) -> Json {
    let selfs = self_times_us(spans);
    Json::Arr(
        spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_us))| {
                json::obj([
                    ("id", json::num(id as f64)),
                    ("name", json::text(&s.name)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| json::num(p as f64)),
                    ),
                    ("group", json::num(s.group as f64)),
                    ("start_us", json::num(s.start_us as f64)),
                    ("end_us", json::num(s.end_us as f64)),
                    ("self_us", json::num(self_us as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, end_us: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("rank0", 10, 60, Some(0)),
            span("rank1", 40, 80, Some(0)), // overlaps rank0 on [40, 60)
            span("step", 20, 30, Some(1)),
            span("late", 90, 120, Some(0)), // clipped to the parent's end
            span("other", 100, 150, None),
        ];
        let selfs = self_times_us(&spans);
        // rep: 100 − ([10,80) ∪ [90,100)) = 100 − 80
        assert_eq!(selfs[0], 20);
        assert_eq!(selfs[1], 40);
        assert_eq!(selfs[2], 40);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[5], 50);
        assert_eq!(top_level_us(&spans), 150);
    }

    #[test]
    fn recorder_nests_open_spans() {
        let rec = Recorder::new();
        let outer = rec.open("outer", None, 7);
        rec.time("inner", Some(outer), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.close(outer);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        assert!(spans[1].duration_us() >= 2000);
        assert_eq!(spans[0].group, 7);
    }
}

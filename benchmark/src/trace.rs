//! In-memory span recorder for the traced pass.
//!
//! Spans are taken from the harness's side of each layer boundary: a span
//! opens before a call into a crate's public function and closes when it
//! returns. Nothing inside the measured crates is instrumented. Spans are
//! kept in memory and written out once, when the workload ends, so
//! recording costs one mutex push per boundary.

use std::sync::Mutex;
use std::time::Instant;

use ppbench_core::json::{JsonArray, JsonObject};

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    trial: u32,
    start_us: f64,
    end_us: f64,
    note: Option<String>,
}

/// Collects spans relative to its creation instant.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span list poisoned: a recording thread panicked")
    }

    /// Opens a span under `parent` belonging to trial `trial`.
    pub fn begin(&self, name: &str, parent: Option<SpanId>, trial: u32) -> SpanId {
        let start_us = self.now_us();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            parent,
            trial,
            start_us,
            end_us: f64::NAN,
            note: None,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn end(&self, id: SpanId) -> f64 {
        let end_us = self.now_us();
        let mut spans = self.lock();
        spans[id].end_us = end_us;
        (end_us - spans[id].start_us) / 1e6
    }

    /// Attaches a free-text note to span `id` (e.g. the model's dominant
    /// resource).
    pub fn note(&self, id: SpanId, note: &str) {
        self.lock()[id].note = Some(note.to_string());
    }

    /// Structural check the self-test relies on: every span is closed and
    /// every child lies inside its parent's interval and trial.
    pub fn check(&self) -> Result<(), String> {
        let spans = self.lock();
        for (i, s) in spans.iter().enumerate() {
            if !s.end_us.is_finite() {
                return Err(format!("span {i} ({}) was never closed", s.name));
            }
            if let Some(p) = s.parent {
                let parent = &spans[p];
                if parent.trial != s.trial {
                    return Err(format!(
                        "span {i} ({}) is in trial {} but its parent {} is in trial {}",
                        s.name, s.trial, parent.name, parent.trial
                    ));
                }
                // 1 µs of slack: parent and child read the clock separately.
                if s.start_us + 1.0 < parent.start_us || s.end_us > parent.end_us + 1.0 {
                    return Err(format!(
                        "span {i} ({}) lies outside its parent {}",
                        s.name, parent.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Renders every span as a JSON array.
    pub fn to_json(&self) -> String {
        let mut arr = JsonArray::new();
        for (i, s) in self.lock().iter().enumerate() {
            let mut o = JsonObject::new();
            o.set_u64("id", i as u64)
                .set_str("name", &s.name)
                .set_u64("trial", u64::from(s.trial))
                .set_f64("start_us", s.start_us)
                .set_f64("end_us", s.end_us);
            match s.parent {
                Some(p) => o.set_u64("parent", p as u64),
                None => o.set_null("parent"),
            };
            if let Some(note) = &s.note {
                o.set_str("note", note);
            }
            arr.push_obj(&o);
        }
        arr.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_pass_the_structure_check() {
        let rec = Recorder::new();
        let root = rec.begin("trial", None, 7);
        let child = rec.begin("child", Some(root), 7);
        assert!(rec.end(child) >= 0.0);
        rec.end(root);
        rec.check().unwrap();
        assert_eq!(rec.len(), 2);
        assert!(rec.to_json().contains("\"name\":\"child\""));
    }

    #[test]
    fn open_span_and_cross_trial_parent_are_rejected() {
        let rec = Recorder::new();
        let root = rec.begin("trial", None, 1);
        assert!(rec.check().unwrap_err().contains("never closed"));
        rec.end(root);
        let stray = rec.begin("stray", Some(root), 2);
        rec.end(stray);
        assert!(rec.check().unwrap_err().contains("trial"));
    }
}

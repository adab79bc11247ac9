//! Event sinks: where emitted events go.
//!
//! The contract that keeps tracing free when unused: emitters hold an
//! `Option<SharedSink>`, and the disabled path is a single
//! `if sink.is_some()` branch per step — no allocation, no formatting, no
//! virtual call.  perfbench's `sim.steps_per_s` times the engine with no
//! sink attached, so a cost on the disabled path shows up there.

use crate::event::Event;
use std::sync::Mutex;

/// A consumer of [`Event`]s.
///
/// `record` takes `&self` so one trait serves both the single-threaded
/// simulator and the multi-threaded runtime; concurrent sinks synchronize
/// internally.
pub trait EventSink {
    /// Consumes one event.
    fn record(&self, event: &Event);
}

/// The shared-sink handle emitters hold: cheap to clone, safe to hand to
/// runtime threads.
pub type SharedSink = std::sync::Arc<dyn EventSink + Send + Sync>;

/// A sink that drops every event.  Attaching it is equivalent to attaching
/// no sink at all, minus the branch savings — prefer `None`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn record(&self, _event: &Event) {}
}

/// A sink that buffers events in memory, for later export or inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Drains and returns every buffered event, in arrival order.
    #[must_use]
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().expect("event buffer lock"))
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("event buffer lock").len()
    }

    /// Returns `true` if no event is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .expect("event buffer lock")
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_buffers_in_order_and_drains() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.record(&Event::Schedule { clock: 0, actor: 1 });
        sink.record(&Event::MealStart { clock: 1, actor: 1 });
        assert_eq!(sink.len(), 2);
        let events = sink.take();
        assert_eq!(
            events,
            vec![
                Event::Schedule { clock: 0, actor: 1 },
                Event::MealStart { clock: 1, actor: 1 },
            ]
        );
        assert!(sink.is_empty());
    }

    #[test]
    fn sinks_are_object_safe_behind_the_shared_handle() {
        let shared: SharedSink = std::sync::Arc::new(NoopSink);
        shared.record(&Event::Schedule { clock: 0, actor: 0 });
        let memory = std::sync::Arc::new(MemorySink::new());
        let shared: SharedSink = memory.clone();
        shared.record(&Event::Schedule { clock: 0, actor: 0 });
        assert_eq!(memory.len(), 1);
    }
}

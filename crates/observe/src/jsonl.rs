//! Hand-written JSONL (one JSON object per line) codec for event traces.
//!
//! The workspace ships no serde; like every other artifact writer in the
//! repo the encoder is written by hand with a **fixed key order**
//! (`clock`, `type`, then `actor`/`fork`/`cell`), so encoded traces are
//! byte-reproducible.  [`encode_events_chunked`] fans encoding out over
//! scoped worker threads that own disjoint contiguous chunks and
//! concatenates the results in order — the output is byte-identical for
//! every thread count (test-enforced here and end-to-end by the
//! `gdp run --trace` CLI tests).

use crate::event::Event;

/// Escapes a string for embedding in a JSON string literal, without the
/// surrounding quotes: `"`, `\` and the control characters, the latter
/// JSON-style (`\n`, `\u0001`) rather than Rust-style (`\u{1}`).  Every
/// hand-written JSON writer in the workspace escapes through this one
/// function.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Encodes one event as a single JSON object (no trailing newline).
#[must_use]
pub fn encode_event(event: &Event) -> String {
    let clock = event.clock();
    let tag = event.type_tag();
    match event {
        Event::Schedule { actor, .. }
        | Event::MealStart { actor, .. }
        | Event::MealFinish { actor, .. }
        | Event::Crash { actor, .. }
        | Event::Watchdog { actor, .. } => {
            format!("{{\"clock\":{clock},\"type\":\"{tag}\",\"actor\":{actor}}}")
        }
        Event::Acquire { actor, fork, .. } | Event::Release { actor, fork, .. } => {
            format!("{{\"clock\":{clock},\"type\":\"{tag}\",\"actor\":{actor},\"fork\":{fork}}}")
        }
        Event::CellStart { cell, .. }
        | Event::CellFinish { cell, .. }
        | Event::StoreHit { cell, .. }
        | Event::StoreMiss { cell, .. }
        | Event::StoreQuarantine { cell, .. }
        | Event::CertHit { cell, .. }
        | Event::CertMiss { cell, .. } => {
            format!(
                "{{\"clock\":{clock},\"type\":\"{tag}\",\"cell\":\"{}\"}}",
                escape_json(cell)
            )
        }
    }
}

/// Encodes a slice of events as JSONL (one line per event, each terminated
/// by `\n`), serially.
#[must_use]
pub fn encode_events(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&encode_event(event));
        out.push('\n');
    }
    out
}

/// Encodes a slice of events as JSONL over `threads` scoped worker threads
/// (`0` means "use every available core", `1` forces the serial path).
///
/// Workers encode disjoint contiguous chunks and the chunks are
/// concatenated in order, so the output is **byte-identical** to
/// [`encode_events`] for every thread count.
#[must_use]
pub fn encode_events_chunked(events: &[Event], threads: usize) -> String {
    let requested = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    let workers = requested.max(1).min(events.len().max(1));
    if workers <= 1 {
        return encode_events(events);
    }
    let chunk_len = events.len().div_ceil(workers);
    let mut encoded: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = events
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || encode_events(chunk)))
            .collect();
        for handle in handles {
            encoded.push(handle.join().expect("encoder worker panicked"));
        }
    });
    encoded.concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let mut events = Vec::new();
        for clock in 0..97u64 {
            events.push(Event::Schedule {
                clock,
                actor: (clock % 5) as u32,
            });
            if clock % 7 == 0 {
                events.push(Event::Acquire {
                    clock,
                    actor: (clock % 5) as u32,
                    fork: (clock % 3) as u32,
                });
            }
            if clock % 13 == 0 {
                events.push(Event::MealStart {
                    clock,
                    actor: (clock % 5) as u32,
                });
            }
        }
        events.push(Event::CellStart {
            clock: 0,
            cell: "ring/n6/gdp1 \"quoted\"\\".into(),
        });
        events
    }

    #[test]
    fn encoding_is_one_line_per_event_with_fixed_keys() {
        let line = encode_event(&Event::Schedule { clock: 3, actor: 1 });
        assert_eq!(line, "{\"clock\":3,\"type\":\"schedule\",\"actor\":1}");
        let line = encode_event(&Event::Release {
            clock: 9,
            actor: 2,
            fork: 4,
        });
        assert_eq!(
            line,
            "{\"clock\":9,\"type\":\"release\",\"actor\":2,\"fork\":4}"
        );
        let line = encode_event(&Event::StoreQuarantine {
            clock: 1,
            cell: "a\"b".into(),
        });
        assert_eq!(
            line,
            "{\"clock\":1,\"type\":\"store_quarantine\",\"cell\":\"a\\\"b\"}"
        );
        let line = encode_event(&Event::CertHit {
            clock: 2,
            cell: "ring/n4/gdp1".into(),
        });
        assert_eq!(
            line,
            "{\"clock\":2,\"type\":\"cert_hit\",\"cell\":\"ring/n4/gdp1\"}"
        );
    }

    #[test]
    fn chunked_encoding_is_byte_identical_for_every_thread_count() {
        let events = sample_events();
        let serial = encode_events(&events);
        assert_eq!(serial.lines().count(), events.len());
        for threads in [0usize, 1, 2, 3, 7, 64] {
            assert_eq!(
                encode_events_chunked(&events, threads),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_input_encodes_to_empty_output() {
        assert_eq!(encode_events(&[]), "");
        assert_eq!(encode_events_chunked(&[], 8), "");
    }
}

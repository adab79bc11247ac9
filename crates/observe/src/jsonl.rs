//! Hand-written JSONL (one JSON object per line) codec for event traces.
//!
//! The workspace ships no serde; like every other artifact writer in the
//! repo the encoder is written by hand with a **fixed key order**
//! (`clock`, `type`, then `actor`/`fork`/`cell`), so encoded traces are
//! byte-reproducible (test-enforced end-to-end by the `gdp run --trace`
//! CLI tests).

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
/// by `\n`).
#[must_use]
pub fn encode_events(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&encode_event(event));
        out.push('\n');
    }
    out
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
        // A stream is the same lines, each newline-terminated, in order.
        let events = sample_events();
        let body = encode_events(&events);
        assert!(body.ends_with('\n'));
        assert!(body.lines().eq(events.iter().map(encode_event)));
    }

    #[test]
    fn empty_input_encodes_to_empty_output() {
        assert_eq!(encode_events(&[]), "");
    }
}

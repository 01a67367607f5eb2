//! The simulated transport: scripted client connections, chaos
//! mutation, and per-connection transcripts.
//!
//! No sockets anywhere — a [`Trace`] scripts exactly which bytes reach
//! the server and when (simulated milliseconds), which is what makes a
//! serving run replayable: the same trace, config and fault plan
//! produce byte-identical [`ConnTranscript`]s on every run and thread
//! count. The chaos layer ([`apply_chaos`]) rewrites a trace under an
//! [`mx_net::ConnFaultPlan`] — pure-coin per-connection faults in the
//! same style the scan/DNS layers use, so a fault decision is a
//! function of `(conn_id, seed)` and nothing else.

use std::sync::Arc;

use mx_net::{ConnFault, ConnFaultPlan};

/// One contiguous burst of client bytes at a simulated instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Arrival time in simulated milliseconds.
    pub at_ms: u64,
    /// The bytes that arrive.
    pub bytes: Vec<u8>,
}

/// One scripted client connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConn {
    /// Stable connection id — the fault-plan coin key.
    pub id: u64,
    /// When the connection opens (first byte can arrive no earlier).
    pub opened_at_ms: u64,
    /// Byte bursts in arrival order (`at_ms` non-decreasing).
    pub segments: Vec<Segment>,
}

impl ClientConn {
    /// A connection sending one burst per request, spaced `gap_ms`
    /// apart starting at `opened_at_ms`.
    pub fn scripted(id: u64, opened_at_ms: u64, gap_ms: u64, requests: &[&[u8]]) -> ClientConn {
        let segments = requests
            .iter()
            .enumerate()
            .map(|(i, req)| Segment {
                at_ms: opened_at_ms.saturating_add(gap_ms.saturating_mul(i as u64)),
                bytes: req.to_vec(),
            })
            .collect();
        ClientConn {
            id,
            opened_at_ms,
            segments,
        }
    }

    /// Total bytes this connection sends.
    pub fn total_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.bytes.len()).sum()
    }
}

/// A scripted workload: every connection the server will see.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Connections in accept order.
    pub conns: Vec<ClientConn>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Add a connection, returning `self` for chaining.
    pub fn with(mut self, conn: ClientConn) -> Trace {
        self.conns.push(conn);
        self
    }
}

/// How a connection ended, as the server saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Client asked for close (or HTTP/1.0) and the response was sent.
    ClientDone,
    /// Idle keep-alive connection reaped after the idle deadline.
    IdleReaped,
    /// Partial request outlived the read deadline (slowloris/stall).
    DeadlineEvicted,
    /// The parser rejected the stream; an error response was sent.
    ParseFailed,
    /// Connection refused at accept (max-connections cap).
    Refused,
    /// Server drained at end of trace with the connection idle.
    Drained,
}

/// One response as written to the wire: the head bytes, then the body
/// the response shares with the JSON cache — the two buffers of a
/// vectored write. `body` is `None` when the head carries everything
/// (a HEAD answer, or a response with an empty body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Part {
    /// Status line and headers, through the blank line.
    pub head: Vec<u8>,
    /// The body, shared rather than copied.
    pub body: Option<Arc<[u8]>>,
}

impl Part {
    /// Wire length of the part.
    pub(crate) fn len(&self) -> usize {
        self.head.len() + self.body.as_ref().map_or(0, |b| b.len())
    }

    /// Append the part's wire bytes to `out`.
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.head);
        if let Some(body) = &self.body {
            out.extend_from_slice(body);
        }
    }
}

/// Everything the server wrote to one connection, plus how it ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnTranscript {
    /// The scripted connection id.
    pub id: u64,
    /// One part per response, in write order.
    pub parts: Vec<Part>,
    /// Status codes written, in order.
    pub statuses: Vec<u16>,
    /// Why the connection closed.
    pub close: CloseReason,
}

impl ConnTranscript {
    /// Wire length of everything written.
    pub fn len(&self) -> usize {
        self.parts.iter().map(Part::len).sum()
    }

    /// Every response byte, in write order: the parts concatenated.
    /// This copy is a view for comparing replays; serving never makes it.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        self.write_to(&mut out);
        out
    }

    /// Append every response byte, in write order, to `out`.
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        for part in &self.parts {
            part.write_to(out);
        }
    }
}

/// Rewrite a trace under a fault plan. Pure: same `(trace, plan)` in,
/// same trace out.
///
/// Per connection, at most one fault fires ([`ConnFaultPlan`]
/// partitions a single coin):
///
/// * [`ConnFault::Dribble`] — every burst is split into 1-byte
///   segments at the same instant. Benign by construction: the server
///   sees identical bytes at identical times, so responses must be
///   byte-identical to the fault-free run (the replay gate checks
///   exactly this).
/// * [`ConnFault::Disconnect`] — the byte stream is cut at
///   [`ConnFaultPlan::cut_fraction`] of its total length and the rest
///   never arrives; the server's read deadline must reap the remnant.
/// * [`ConnFault::Garbage`] — [`ConnFaultPlan::garbage_bytes`]
///   (high-bit bytes, never CR/LF) are prepended, corrupting the
///   request line into a clean 400.
/// * [`ConnFault::Stall`] — only the first four bytes of the first
///   burst arrive, then silence: a slowloris the deadline must evict.
pub fn apply_chaos(trace: &Trace, plan: &ConnFaultPlan) -> Trace {
    let conns = trace
        .conns
        .iter()
        .map(|conn| match plan.conn_fault(conn.id) {
            None => conn.clone(),
            Some(ConnFault::Dribble) => dribble(conn),
            Some(ConnFault::Disconnect) => disconnect(conn, plan.cut_fraction(conn.id)),
            Some(ConnFault::Garbage) => garbage(conn, plan.garbage_bytes(conn.id)),
            Some(ConnFault::Stall) => stall(conn),
        })
        .collect();
    Trace { conns }
}

fn dribble(conn: &ClientConn) -> ClientConn {
    let segments = conn
        .segments
        .iter()
        .flat_map(|seg| {
            seg.bytes.iter().map(move |b| Segment {
                at_ms: seg.at_ms,
                bytes: vec![*b],
            })
        })
        .collect();
    ClientConn {
        id: conn.id,
        opened_at_ms: conn.opened_at_ms,
        segments,
    }
}

fn disconnect(conn: &ClientConn, cut_fraction: f64) -> ClientConn {
    let total = conn.total_bytes();
    let keep = ((total as f64) * cut_fraction.clamp(0.0, 1.0)) as usize;
    let mut remaining = keep;
    let mut segments = Vec::new();
    for seg in &conn.segments {
        if remaining == 0 {
            break;
        }
        let take = seg.bytes.len().min(remaining);
        segments.push(Segment {
            at_ms: seg.at_ms,
            bytes: seg.bytes.iter().take(take).copied().collect(),
        });
        remaining -= take;
    }
    ClientConn {
        id: conn.id,
        opened_at_ms: conn.opened_at_ms,
        segments,
    }
}

fn garbage(conn: &ClientConn, junk: Vec<u8>) -> ClientConn {
    let mut segments = conn.segments.clone();
    match segments.first_mut() {
        Some(first) => {
            let mut bytes = junk;
            bytes.extend_from_slice(&first.bytes);
            first.bytes = bytes;
        }
        None => segments.push(Segment {
            at_ms: conn.opened_at_ms,
            bytes: junk,
        }),
    }
    ClientConn {
        id: conn.id,
        opened_at_ms: conn.opened_at_ms,
        segments,
    }
}

fn stall(conn: &ClientConn) -> ClientConn {
    let segments = conn
        .segments
        .first()
        .map(|seg| Segment {
            at_ms: seg.at_ms,
            bytes: seg.bytes.iter().take(4).copied().collect(),
        })
        .into_iter()
        .collect();
    ClientConn {
        id: conn.id,
        opened_at_ms: conn.opened_at_ms,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn() -> ClientConn {
        ClientConn::scripted(7, 10, 5, &[b"GET /a HTTP/1.1\r\n\r\n", b"GET /b HTTP/1.1\r\n\r\n"])
    }

    #[test]
    fn scripted_spacing() {
        let c = conn();
        assert_eq!(c.segments.len(), 2);
        assert_eq!(c.segments.first().map(|s| s.at_ms), Some(10));
        assert_eq!(c.segments.last().map(|s| s.at_ms), Some(15));
        assert_eq!(c.total_bytes(), 38);
    }

    #[test]
    fn dribble_preserves_bytes_and_times() {
        let c = conn();
        let d = dribble(&c);
        assert_eq!(d.total_bytes(), c.total_bytes());
        assert!(d.segments.iter().all(|s| s.bytes.len() == 1));
        let rejoined: Vec<u8> = d.segments.iter().flat_map(|s| s.bytes.clone()).collect();
        let orig: Vec<u8> = c.segments.iter().flat_map(|s| s.bytes.clone()).collect();
        assert_eq!(rejoined, orig);
    }

    #[test]
    fn disconnect_truncates() {
        let c = conn();
        let d = disconnect(&c, 0.5);
        assert_eq!(d.total_bytes(), c.total_bytes() / 2);
    }

    #[test]
    fn garbage_prepends_non_crlf() {
        let c = conn();
        let g = garbage(&c, vec![0x80, 0xFF]);
        let first = g.segments.first().unwrap();
        assert!(first.bytes.starts_with(&[0x80, 0xFF]));
        assert_eq!(g.total_bytes(), c.total_bytes() + 2);
    }

    #[test]
    fn stall_keeps_prefix_only() {
        let s = stall(&conn());
        assert_eq!(s.total_bytes(), 4);
        assert_eq!(s.segments.len(), 1);
    }

    #[test]
    fn apply_chaos_none_is_identity() {
        let t = Trace::new().with(conn());
        assert_eq!(apply_chaos(&t, &ConnFaultPlan::none()), t);
    }

    #[test]
    fn apply_chaos_is_deterministic() {
        let mut t = Trace::new();
        for id in 0..50 {
            t = t.with(ClientConn::scripted(id, id, 3, &[b"GET / HTTP/1.1\r\n\r\n"]));
        }
        let plan = ConnFaultPlan::uniform(0.5, 99);
        assert_eq!(apply_chaos(&t, &plan), apply_chaos(&t, &plan));
        // Some connection must be mutated at this rate and width.
        assert_ne!(apply_chaos(&t, &plan), t);
    }
}

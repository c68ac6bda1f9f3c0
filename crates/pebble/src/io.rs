//! Protocol serialization: a compact, line-oriented text format.
//!
//! Protocols are the system's exchange artifact — a simulation run can be
//! saved, inspected with standard text tools, diffed, and re-checked later
//! (or by an independent implementation). The format is deliberately
//! trivial:
//!
//! ```text
//! unetproto 1
//! n <guests> t <guest-steps> m <hosts>
//! step
//! g <host> <node> <t>          # Generate((node, t)) at host
//! s <host> <to> <node> <t>     # Send pebble (node, t) to host `to`
//! r <host> <from>              # Recv from host `from`
//! step
//! …
//! ```
//!
//! Idle processors are simply omitted from their step. No external
//! dependencies; round-trips exactly.

use crate::protocol::{Op, Pebble, Protocol, ProtocolBuilder};
use std::fmt::Write as _;
use std::num::{IntErrorKind, ParseIntError};

/// Serialize to the text format.
pub fn to_text(proto: &Protocol) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "unetproto 1");
    let _ = writeln!(out, "n {} t {} m {}", proto.guest_n, proto.guest_t, proto.host_m);
    for row in proto.steps() {
        let _ = writeln!(out, "step");
        for (q, op) in row {
            match op {
                Op::Idle => {}
                Op::Generate(p) => {
                    let _ = writeln!(out, "g {q} {} {}", p.node, p.t);
                }
                Op::Send { pebble, to } => {
                    let _ = writeln!(out, "s {q} {to} {} {}", pebble.node, pebble.t);
                }
                Op::Recv { from } => {
                    let _ = writeln!(out, "r {q} {from}");
                }
            }
        }
    }
    out
}

/// Parse errors with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

/// Parse one number of type `T`; a number too large for `T` is an error,
/// never truncated.
fn number<T: std::str::FromStr<Err = ParseIntError>>(s: &str, ln: usize) -> Result<T, ParseError> {
    s.parse().map_err(|e: ParseIntError| match e.kind() {
        IntErrorKind::PosOverflow => {
            err(ln, format!("number {s} out of range for {}", std::any::type_name::<T>()))
        }
        _ => err(ln, format!("bad number {s:?}")),
    })
}

fn set_op(builder: &mut ProtocolBuilder, q: usize, op: Op, ln: usize) -> Result<(), ParseError> {
    let m = builder.host_m();
    if q >= m {
        return Err(err(ln, format!("host {q} out of range (m = {m})")));
    }
    if !builder.is_free(q as u32) {
        return Err(err(ln, format!("host {q} already has an op this step")));
    }
    builder.set_op(q as u32, op);
    Ok(())
}

/// The sizes `(n, t, m)` a protocol file declares, read from its first two
/// lines only. [`from_text`] sizes its scratch by `m`, so a caller that
/// holds the graphs can test the header against them first (see
/// [`check_sizes`](crate::check::check_sizes)).
pub fn read_header(text: &str) -> Result<(usize, u32, usize), ParseError> {
    header(&mut numbered_lines(text))
}

fn numbered_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()))
}

fn header<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
) -> Result<(usize, u32, usize), ParseError> {
    let (ln, header) = lines.next().ok_or_else(|| err(0, "empty input"))?;
    if header != "unetproto 1" {
        return Err(err(ln, format!("bad header {header:?}")));
    }
    let (ln, dims) = lines.next().ok_or_else(|| err(ln, "missing dimensions"))?;
    let parts: Vec<&str> = dims.split_whitespace().collect();
    if parts.len() != 6 || parts[0] != "n" || parts[2] != "t" || parts[4] != "m" {
        return Err(err(ln, format!("bad dimension line {dims:?}")));
    }
    let n: usize = number(parts[1], ln)?;
    let t: u32 = number(parts[3], ln)?;
    let m: usize = number(parts[5], ln)?;
    if m > Protocol::MAX_HOSTS {
        return Err(err(ln, format!("m {m} exceeds the {} host limit", Protocol::MAX_HOSTS)));
    }
    Ok((n, t, m))
}

/// Parse the text format back into a [`Protocol`].
pub fn from_text(text: &str) -> Result<Protocol, ParseError> {
    let mut lines = numbered_lines(text);
    let (n, t, m) = header(&mut lines)?;
    let mut builder = ProtocolBuilder::new(n, t, m);
    let mut in_step = false;
    for (ln, line) in lines {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let tag = it.next().unwrap();
        if tag == "step" {
            if in_step {
                builder.end_step();
            }
            in_step = true;
            continue;
        }
        if !in_step {
            return Err(err(ln, "operation before first `step`"));
        }
        let mut next = |what: &str| it.next().ok_or_else(|| err(ln, format!("missing {what}")));
        match tag {
            "g" => {
                let q = number(next("host")?, ln)?;
                let node = number(next("node")?, ln)?;
                let pt = number(next("t")?, ln)?;
                set_op(&mut builder, q, Op::Generate(Pebble::new(node, pt)), ln)?;
            }
            "s" => {
                let q = number(next("host")?, ln)?;
                let to = number(next("to")?, ln)?;
                let node = number(next("node")?, ln)?;
                let pt = number(next("t")?, ln)?;
                set_op(&mut builder, q, Op::Send { pebble: Pebble::new(node, pt), to }, ln)?;
            }
            "r" => {
                let q = number(next("host")?, ln)?;
                let from = number(next("from")?, ln)?;
                set_op(&mut builder, q, Op::Recv { from }, ln)?;
            }
            other => return Err(err(ln, format!("unknown tag {other:?}"))),
        }
    }
    if in_step {
        builder.end_step();
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolBuilder;

    fn sample() -> Protocol {
        let mut b = ProtocolBuilder::new(3, 2, 2);
        b.set_op(0, Op::Generate(Pebble::new(0, 1)));
        b.end_step();
        b.transfer(0, 1, Pebble::new(0, 1));
        b.end_step();
        b.set_op(1, Op::Generate(Pebble::new(1, 1)));
        b.set_op(0, Op::Generate(Pebble::new(2, 1)));
        b.end_step();
        b.finish()
    }

    #[test]
    fn roundtrip_exact() {
        let p = sample();
        let text = to_text(&p);
        let back = from_text(&text).expect("parses");
        assert_eq!(p, back);
    }

    #[test]
    fn format_is_line_oriented() {
        let text = to_text(&sample());
        assert!(text.starts_with("unetproto 1\nn 3 t 2 m 2\nstep\ng 0 0 1\n"));
        assert_eq!(text.matches("step").count(), 3);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "unetproto 1\nn 1 t 1 m 1\n\n# hi\nstep\ng 0 0 1\n";
        let p = from_text(text).unwrap();
        assert_eq!(p.host_steps(), 1);
        assert_eq!(p.op(0, 0), Op::Generate(Pebble::new(0, 1)));
    }

    #[test]
    fn bad_header_rejected() {
        let e = from_text("nope\n").unwrap_err();
        assert!(e.message.contains("bad header"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn out_of_range_host_rejected() {
        let e = from_text("unetproto 1\nn 1 t 1 m 1\nstep\ng 5 0 1\n").unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn double_booking_rejected() {
        let e = from_text("unetproto 1\nn 1 t 1 m 1\nstep\ng 0 0 1\nr 0 0\n").unwrap_err();
        assert!(e.message.contains("already has an op"));
    }

    #[test]
    fn op_before_step_rejected() {
        let e = from_text("unetproto 1\nn 1 t 1 m 1\ng 0 0 1\n").unwrap_err();
        assert!(e.message.contains("before first"));
    }

    #[test]
    fn unknown_tag_rejected() {
        let e = from_text("unetproto 1\nn 1 t 1 m 1\nstep\nx 0\n").unwrap_err();
        assert!(e.message.contains("unknown tag"));
    }

    #[test]
    fn numbers_past_u32_rejected_not_truncated() {
        // 4294967296 = 2^32 used to be read as 0, 4294967297 as 1.
        let e = from_text("unetproto 1\nn 3 t 1 m 2\nstep\ng 0 4294967296 1\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert_eq!(e.message, "number 4294967296 out of range for u32");
        let e = from_text("unetproto 1\nn 3 t 4294967297 m 2\nstep\ng 0 0 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.message, "number 4294967297 out of range for u32");
        for line in ["s 0 4294967297 0 1", "s 0 1 0 4294967296", "r 1 4294967296"] {
            let e = from_text(&format!("unetproto 1\nn 3 t 1 m 2\nstep\n{line}\n")).unwrap_err();
            assert_eq!(e.line, 4, "{line}");
            assert!(e.message.contains("out of range for u32"), "{line}: {}", e.message);
        }
        // The largest u32 values still parse.
        let p = from_text("unetproto 1\nn 3 t 4294967295 m 2\nstep\ng 1 4294967295 4294967295\n")
            .expect("u32::MAX fits");
        assert_eq!(p.op(0, 1), Op::Generate(Pebble::new(u32::MAX, u32::MAX)));
        let e = from_text("unetproto 1\nn x t 1 m 2\n").unwrap_err();
        assert_eq!(e.message, "bad number \"x\"");
    }

    #[test]
    fn header_is_read_without_the_body() {
        let text = "unetproto 1\nn 3 t 2 m 4000000\nstep\nx\n";
        assert_eq!(read_header(text), Ok((3, 2, 4_000_000)));
        assert_eq!(read_header("unetproto 1\n").unwrap_err().message, "missing dimensions");
    }

    #[test]
    fn host_count_past_the_record_limit_rejected() {
        let text = format!("unetproto 1\nn 1 t 1 m {}\n", Protocol::MAX_HOSTS + 1);
        let e = from_text(&text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("host limit"), "{}", e.message);
    }

    #[test]
    fn large_roundtrip_via_simulator_format_stability() {
        // A protocol with hundreds of ops survives the round trip.
        let mut b = ProtocolBuilder::new(16, 4, 4);
        for t in 1..=4u32 {
            for i in 0..16u32 {
                b.set_op(i % 4, Op::Generate(Pebble::new(i, t)));
                b.end_step();
            }
        }
        let p = b.finish();
        assert_eq!(from_text(&to_text(&p)).unwrap(), p);
    }
}

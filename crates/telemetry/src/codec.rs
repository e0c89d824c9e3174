//! On-disk command-trace formats: compact binary and JSONL.
//!
//! Both formats carry the
//! [`hammertime_common::traceformat::TraceHeader`] and the same record
//! stream, and convert losslessly into each other:
//!
//! - **JSONL** — first line is the header JSON
//!   (`{"magic":"HTRC","version":1,"kind":"Commands"}`), every
//!   following line one [`TraceRecord`] JSON. Greppable, diffable with
//!   text tools.
//! - **Binary** — magic `HTRB`, `u32` version (little-endian), `u8`
//!   kind tag (`1`, commands), then fixed-layout little-endian records
//!   until EOF. Roughly an order of magnitude smaller.
//!
//! A header of any other kind (tag `0`, or `"kind":"Ops"`) is refused
//! with [`Error::Config`]. [`read_path`] sniffs the leading magic
//! bytes, so callers never specify the format when loading.

use crate::event::{CmdEvent, Event, TraceRecord};
use hammertime_common::geometry::BankId;
use hammertime_common::traceformat::{TraceHeader, TraceKind};
use hammertime_common::{Error, Result};
use std::fs;
use std::path::Path;

/// Magic bytes opening a binary command trace.
pub const BINARY_MAGIC: &[u8; 4] = b"HTRB";

/// A complete command trace: header plus every record, in emission
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandTrace {
    /// Shared trace header (`kind` must be [`TraceKind::Commands`]).
    pub header: TraceHeader,
    /// Cycle-stamped records in emission order.
    pub records: Vec<TraceRecord>,
}

impl CommandTrace {
    /// Wraps records in a current-version commands header.
    pub fn new(records: Vec<TraceRecord>) -> CommandTrace {
        CommandTrace {
            header: TraceHeader::commands(),
            records,
        }
    }
}

/// Writes `trace` to `path`, picking the format by extension:
/// `.jsonl`/`.json` → JSONL, anything else → binary.
pub fn write_path(path: &Path, trace: &CommandTrace) -> Result<()> {
    let jsonl = matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("jsonl") | Some("json")
    );
    let bytes = if jsonl {
        to_jsonl(trace).into_bytes()
    } else {
        to_binary(trace)
    };
    fs::write(path, bytes)
        .map_err(|e| Error::Config(format!("write trace {}: {e}", path.display())))
}

/// Reads a command trace from `path`, sniffing binary vs JSONL by the
/// leading magic bytes.
pub fn read_path(path: &Path) -> Result<CommandTrace> {
    let bytes =
        fs::read(path).map_err(|e| Error::Config(format!("read trace {}: {e}", path.display())))?;
    if bytes.starts_with(BINARY_MAGIC) {
        from_binary(&bytes)
    } else {
        let text = String::from_utf8(bytes)
            .map_err(|e| Error::Config(format!("trace {} is not UTF-8: {e}", path.display())))?;
        from_jsonl(&text)
    }
}

/// Renders `trace` as JSONL text.
pub fn to_jsonl(trace: &CommandTrace) -> String {
    let mut out = serde_json::to_string(&trace.header).expect("header serializes");
    out.push('\n');
    for rec in &trace.records {
        out.push_str(&serde_json::to_string(rec).expect("record serializes"));
        out.push('\n');
    }
    out
}

/// Parses JSONL text into a validated command trace.
pub fn from_jsonl(text: &str) -> Result<CommandTrace> {
    let mut lines = text.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| Error::Config("empty trace file".into()))?;
    let header: TraceHeader = serde_json::from_str(header_line)
        .map_err(|e| Error::Config(format!("bad trace header: {e}")))?;
    header.validate()?;
    let mut records = Vec::new();
    for (n, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let rec: TraceRecord = serde_json::from_str(line)
            .map_err(|e| Error::Config(format!("bad trace record on line {}: {e}", n + 2)))?;
        records.push(rec);
    }
    Ok(CommandTrace { header, records })
}

/// Renders `trace` as compact binary bytes.
pub fn to_binary(trace: &CommandTrace) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + trace.records.len() * 24);
    out.extend_from_slice(BINARY_MAGIC);
    out.extend_from_slice(&trace.header.version.to_le_bytes());
    out.push(KIND_COMMANDS);
    for rec in &trace.records {
        encode_record(rec, &mut out);
    }
    out
}

/// Parses binary bytes into a validated command trace.
pub fn from_binary(bytes: &[u8]) -> Result<CommandTrace> {
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.take(4)?;
    if magic != BINARY_MAGIC {
        return Err(Error::Config("not a binary hammertime trace".into()));
    }
    let version = r.u32()?;
    let tag = r.u8()?;
    if tag != KIND_COMMANDS {
        return Err(Error::Config(format!("unknown trace kind tag {tag}")));
    }
    let header = TraceHeader {
        magic: hammertime_common::TRACE_MAGIC.to_string(),
        version,
        kind: TraceKind::Commands,
    };
    header.validate()?;
    let mut records = Vec::new();
    while !r.done() {
        records.push(decode_record(&mut r)?);
    }
    Ok(CommandTrace { header, records })
}

/// The binary header's kind tag for [`TraceKind::Commands`], the only
/// kind there is.
const KIND_COMMANDS: u8 = 1;

// --- binary record layout -------------------------------------------------
//
// record  := u64 cycle, u8 event_tag, payload
// strings := u32 length, utf-8 bytes
// f64     := IEEE-754 bits as u64
// BankId  := u32 channel, u32 rank, u32 bank_group, u32 bank

const TAG_DEVICE_RESET: u8 = 0;
const TAG_COMMAND: u8 = 1;
const TAG_FLIP: u8 = 2;
const TAG_RETENTION_CHECK: u8 = 3;
const TAG_TRR_REFRESH: u8 = 4;
const TAG_ACT_INTERRUPT: u8 = 5;
const TAG_REFRESH_INSTR: u8 = 6;
const TAG_REMAP: u8 = 7;
const TAG_FAULT_INJECTED: u8 = 8;
const TAG_SCHEDULER_WEDGE: u8 = 9;
const TAG_DEVICE_STATS: u8 = 10;

const CMD_ACT: u8 = 0;
const CMD_PRE: u8 = 1;
const CMD_PRE_ALL: u8 = 2;
const CMD_RD: u8 = 3;
const CMD_WR: u8 = 4;
const CMD_REF: u8 = 5;
const CMD_REF_NEIGHBORS: u8 = 6;

/// Appends the binary encoding of one record.
fn encode_record(rec: &TraceRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(&rec.cycle.to_le_bytes());
    match &rec.event {
        Event::DeviceReset { config_json } => {
            out.push(TAG_DEVICE_RESET);
            put_str(out, config_json);
        }
        Event::Command { cmd } => {
            out.push(TAG_COMMAND);
            encode_cmd(cmd, out);
        }
        Event::Flip {
            flat_bank,
            victim_row,
            aggressor_row,
            bit,
        } => {
            out.push(TAG_FLIP);
            out.extend_from_slice(&flat_bank.to_le_bytes());
            out.extend_from_slice(&victim_row.to_le_bytes());
            out.extend_from_slice(&aggressor_row.to_le_bytes());
            out.extend_from_slice(&bit.to_le_bytes());
        }
        Event::RetentionCheck {
            bank,
            row,
            margin,
            decayed,
        } => {
            out.push(TAG_RETENTION_CHECK);
            put_bank(out, bank);
            out.extend_from_slice(&row.to_le_bytes());
            out.extend_from_slice(&margin.to_bits().to_le_bytes());
            out.push(u8::from(*decayed));
        }
        Event::TrrRefresh { flat_bank, row } => {
            out.push(TAG_TRR_REFRESH);
            out.extend_from_slice(&flat_bank.to_le_bytes());
            out.extend_from_slice(&row.to_le_bytes());
        }
        Event::ActInterrupt {
            channel,
            raised_at,
            latency,
        } => {
            out.push(TAG_ACT_INTERRUPT);
            out.extend_from_slice(&channel.to_le_bytes());
            out.extend_from_slice(&raised_at.to_le_bytes());
            out.extend_from_slice(&latency.to_le_bytes());
        }
        Event::RefreshInstr { line, nacked } => {
            out.push(TAG_REFRESH_INSTR);
            out.extend_from_slice(&line.to_le_bytes());
            out.push(u8::from(*nacked));
        }
        Event::Remap { frame, new_frame } => {
            out.push(TAG_REMAP);
            out.extend_from_slice(&frame.to_le_bytes());
            out.extend_from_slice(&new_frame.to_le_bytes());
        }
        Event::FaultInjected { kind } => {
            out.push(TAG_FAULT_INJECTED);
            put_str(out, kind);
        }
        Event::SchedulerWedge { message } => {
            out.push(TAG_SCHEDULER_WEDGE);
            put_str(out, message);
        }
        Event::DeviceStats { stats_json } => {
            out.push(TAG_DEVICE_STATS);
            put_str(out, stats_json);
        }
    }
}

fn encode_cmd(cmd: &CmdEvent, out: &mut Vec<u8>) {
    match cmd {
        CmdEvent::Act { bank, row } => {
            out.push(CMD_ACT);
            put_bank(out, bank);
            out.extend_from_slice(&row.to_le_bytes());
        }
        CmdEvent::Pre { bank } => {
            out.push(CMD_PRE);
            put_bank(out, bank);
        }
        CmdEvent::PreAll { channel, rank } => {
            out.push(CMD_PRE_ALL);
            out.extend_from_slice(&channel.to_le_bytes());
            out.extend_from_slice(&rank.to_le_bytes());
        }
        CmdEvent::Rd {
            bank,
            col,
            auto_pre,
        } => {
            out.push(CMD_RD);
            put_bank(out, bank);
            out.extend_from_slice(&col.to_le_bytes());
            out.push(u8::from(*auto_pre));
        }
        CmdEvent::Wr {
            bank,
            col,
            auto_pre,
        } => {
            out.push(CMD_WR);
            put_bank(out, bank);
            out.extend_from_slice(&col.to_le_bytes());
            out.push(u8::from(*auto_pre));
        }
        CmdEvent::Ref { channel, rank } => {
            out.push(CMD_REF);
            out.extend_from_slice(&channel.to_le_bytes());
            out.extend_from_slice(&rank.to_le_bytes());
        }
        CmdEvent::RefNeighbors { bank, row, radius } => {
            out.push(CMD_REF_NEIGHBORS);
            put_bank(out, bank);
            out.extend_from_slice(&row.to_le_bytes());
            out.extend_from_slice(&radius.to_le_bytes());
        }
    }
}

fn decode_record(r: &mut Reader<'_>) -> Result<TraceRecord> {
    let cycle = r.u64()?;
    let event = match r.u8()? {
        TAG_DEVICE_RESET => Event::DeviceReset {
            config_json: r.string()?,
        },
        TAG_COMMAND => Event::Command {
            cmd: decode_cmd(r)?,
        },
        TAG_FLIP => Event::Flip {
            flat_bank: r.u64()?,
            victim_row: r.u32()?,
            aggressor_row: r.u32()?,
            bit: r.u64()?,
        },
        TAG_RETENTION_CHECK => Event::RetentionCheck {
            bank: r.bank()?,
            row: r.u32()?,
            margin: f64::from_bits(r.u64()?),
            decayed: r.u8()? != 0,
        },
        TAG_TRR_REFRESH => Event::TrrRefresh {
            flat_bank: r.u64()?,
            row: r.u32()?,
        },
        TAG_ACT_INTERRUPT => Event::ActInterrupt {
            channel: r.u32()?,
            raised_at: r.u64()?,
            latency: r.u64()?,
        },
        TAG_REFRESH_INSTR => Event::RefreshInstr {
            line: r.u64()?,
            nacked: r.u8()? != 0,
        },
        TAG_REMAP => Event::Remap {
            frame: r.u64()?,
            new_frame: r.u64()?,
        },
        TAG_FAULT_INJECTED => Event::FaultInjected { kind: r.string()? },
        TAG_SCHEDULER_WEDGE => Event::SchedulerWedge {
            message: r.string()?,
        },
        TAG_DEVICE_STATS => Event::DeviceStats {
            stats_json: r.string()?,
        },
        other => return Err(Error::Config(format!("unknown event tag {other}"))),
    };
    Ok(TraceRecord { cycle, event })
}

fn decode_cmd(r: &mut Reader<'_>) -> Result<CmdEvent> {
    Ok(match r.u8()? {
        CMD_ACT => CmdEvent::Act {
            bank: r.bank()?,
            row: r.u32()?,
        },
        CMD_PRE => CmdEvent::Pre { bank: r.bank()? },
        CMD_PRE_ALL => CmdEvent::PreAll {
            channel: r.u32()?,
            rank: r.u32()?,
        },
        CMD_RD => CmdEvent::Rd {
            bank: r.bank()?,
            col: r.u32()?,
            auto_pre: r.u8()? != 0,
        },
        CMD_WR => CmdEvent::Wr {
            bank: r.bank()?,
            col: r.u32()?,
            auto_pre: r.u8()? != 0,
        },
        CMD_REF => CmdEvent::Ref {
            channel: r.u32()?,
            rank: r.u32()?,
        },
        CMD_REF_NEIGHBORS => CmdEvent::RefNeighbors {
            bank: r.bank()?,
            row: r.u32()?,
            radius: r.u32()?,
        },
        other => return Err(Error::Config(format!("unknown command tag {other}"))),
    })
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_bank(out: &mut Vec<u8>, b: &BankId) {
    out.extend_from_slice(&b.channel.to_le_bytes());
    out.extend_from_slice(&b.rank.to_le_bytes());
    out.extend_from_slice(&b.bank_group.to_le_bytes());
    out.extend_from_slice(&b.bank.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| Error::Config("truncated binary trace".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| Error::Config(format!("non-UTF-8 string in binary trace: {e}")))
    }

    fn bank(&mut self) -> Result<BankId> {
        Ok(BankId {
            channel: self.u32()?,
            rank: self.u32()?,
            bank_group: self.u32()?,
            bank: self.u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> BankId {
        BankId {
            channel: 1,
            rank: 0,
            bank_group: 2,
            bank: 3,
        }
    }

    /// One record of every event variant (and every command shape).
    fn exhaustive_records() -> Vec<TraceRecord> {
        let cmds = vec![
            CmdEvent::Act {
                bank: bank(),
                row: 9,
            },
            CmdEvent::Pre { bank: bank() },
            CmdEvent::PreAll {
                channel: 0,
                rank: 1,
            },
            CmdEvent::Rd {
                bank: bank(),
                col: 5,
                auto_pre: true,
            },
            CmdEvent::Wr {
                bank: bank(),
                col: 6,
                auto_pre: false,
            },
            CmdEvent::Ref {
                channel: 1,
                rank: 0,
            },
            CmdEvent::RefNeighbors {
                bank: bank(),
                row: 12,
                radius: 2,
            },
        ];
        let mut events: Vec<Event> = cmds.into_iter().map(|cmd| Event::Command { cmd }).collect();
        events.extend([
            Event::DeviceReset {
                config_json: "{\"seed\":1}".into(),
            },
            Event::Flip {
                flat_bank: 3,
                victim_row: 7,
                aggressor_row: 8,
                bit: 1 << 40,
            },
            Event::RetentionCheck {
                bank: bank(),
                row: 4,
                margin: 1.5,
                decayed: true,
            },
            Event::TrrRefresh {
                flat_bank: 2,
                row: 11,
            },
            Event::ActInterrupt {
                channel: 0,
                raised_at: 100,
                latency: 7,
            },
            Event::RefreshInstr {
                line: 0xdead,
                nacked: true,
            },
            Event::Remap {
                frame: 10,
                new_frame: 20,
            },
            Event::FaultInjected {
                kind: "ghost-ref".into(),
            },
            Event::SchedulerWedge {
                message: "illegal \"state\"\nwith newline".into(),
            },
            Event::DeviceStats {
                stats_json: "{\"acts\":5}".into(),
            },
        ]);
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                cycle: i as u64 * 17,
                event,
            })
            .collect()
    }

    #[test]
    fn binary_round_trips_every_variant() {
        let trace = CommandTrace::new(exhaustive_records());
        let bytes = to_binary(&trace);
        let back = from_binary(&bytes).expect("binary parses");
        assert_eq!(trace, back);
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let trace = CommandTrace::new(exhaustive_records());
        let text = to_jsonl(&trace);
        let back = from_jsonl(&text).expect("jsonl parses");
        assert_eq!(trace, back);
    }

    #[test]
    fn binary_and_jsonl_convert_losslessly() {
        let trace = CommandTrace::new(exhaustive_records());
        // binary -> parse -> jsonl -> parse: still identical.
        let via_binary = from_binary(&to_binary(&trace)).unwrap();
        let via_both = from_jsonl(&to_jsonl(&via_binary)).unwrap();
        assert_eq!(trace, via_both);
    }

    #[test]
    fn binary_is_substantially_smaller_than_jsonl() {
        let mut records = Vec::new();
        for i in 0..500u64 {
            records.push(TraceRecord {
                cycle: i,
                event: Event::Command {
                    cmd: CmdEvent::Act {
                        bank: bank(),
                        row: (i % 128) as u32,
                    },
                },
            });
        }
        let trace = CommandTrace::new(records);
        let bin = to_binary(&trace).len();
        let jsonl = to_jsonl(&trace).len();
        assert!(
            bin * 3 < jsonl,
            "binary ({bin} B) should be well under a third of JSONL ({jsonl} B)"
        );
    }

    /// The header bytes of both formats are part of the on-disk
    /// contract: traces written by earlier builds must keep loading.
    #[test]
    fn headers_are_pinned_byte_for_byte() {
        let empty = CommandTrace::new(vec![]);
        let bin = to_binary(&empty);
        assert_eq!(&bin[..4], b"HTRB");
        assert_eq!(&bin[4..8], &1u32.to_le_bytes());
        assert_eq!(bin[8], 1, "kind tag of a command trace");
        assert_eq!(bin.len(), 9, "an empty trace is its header");
        let text = to_jsonl(&empty);
        assert_eq!(
            text.lines().next(),
            Some(r#"{"magic":"HTRC","version":1,"kind":"Commands"}"#)
        );
    }

    #[test]
    fn truncated_and_corrupt_inputs_are_rejected() {
        let trace = CommandTrace::new(exhaustive_records());
        let bytes = to_binary(&trace);
        assert!(from_binary(&bytes[..bytes.len() - 3]).is_err());
        assert!(from_binary(b"NOPE").is_err());
        let mut ops_kind = bytes.clone();
        ops_kind[8] = 0;
        assert!(matches!(from_binary(&ops_kind), Err(Error::Config(_))));
        assert!(from_jsonl("").is_err());
        assert!(matches!(
            from_jsonl("{\"magic\":\"HTRC\",\"version\":1,\"kind\":\"Ops\"}\n"),
            Err(Error::Config(_))
        ));
    }
}

//! The line wire codec: `prj/2 …`, one message per line.
//!
//! A human-readable text protocol chosen so that a round-trip needs nothing
//! beyond a TCP stream and `BufRead::read_line` — no serialisation
//! dependency, debuggable with `nc`:
//!
//! ```text
//! request  := "prj/2" SP verb (SP key "=" value)*
//! response := "prj/2 ok" SP form (SP key "=" value)*
//!           | "prj/2 err kind=" code " msg=" rest-of-line
//! ```
//!
//! Every verb and form is declared once, in the `messages!` tables below,
//! as its keys and each key's value type; every compound value (a tuple,
//! a result row, a span, …) is declared once as a `record!` of its parts
//! and their separator. The encoder and the decoder are both generated
//! from those declarations, so the two directions cannot drift apart. A
//! line carrying a key its message does not declare, or a key twice, is
//! malformed.
//!
//! Floats are emitted with Rust's shortest-round-trip formatting, so decode
//! ∘ encode is the identity on every finite and non-finite value. Names
//! (relations, scorings, spans, metrics) are restricted to
//! `[A-Za-z0-9_.-]+` and must not start with `#`, which introduces id
//! references; free text (planner rationales, trace roots, worker
//! addresses, algorithm ids) is percent-encoded. Booleans are spelled
//! `true`/`false` and nothing else.
//!
//! ## One dialect
//!
//! This build speaks `prj/2` only. A line with any other prefix — `prj/1`
//! included — is refused with a typed [`ErrorKind::Version`] error, and a
//! server answers every line, undecodable ones too, at `prj/2`.

use crate::error::{ApiError, ErrorKind};
use crate::events::{ChangeEvent, Notification};
use crate::request::{
    QueryRequest, RelationRef, Request, ScoringSelector, TraceContext, TupleData, UnitRequest,
};
use crate::response::{
    AnalyzeReport, ExplainReport, HealthReport, MetricKind, MetricSample, MetricsReport,
    RelationPlanStat, Response, ResultRow, SpanRecord, StatsReport, TraceSummary, TrajectorySample,
    UnitMember, UnitOutcome, UnitPlanReport, UnitProfile, UnitRow, WorkerHealth,
};
use crate::PROTOCOL_VERSION;
use prj_access::AccessKind;
use prj_core::Algorithm;
use std::fmt::Write as _;

type R<T> = Result<T, ApiError>;

/// The prefix of every line.
const PREFIX: &str = "prj/2";
const _: () = assert!(PROTOCOL_VERSION == 2, "PREFIX spells PROTOCOL_VERSION");

/// `true` when `name` is usable on the wire without escaping.
pub fn is_wire_safe_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('#')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` when a metric label value fits on the wire unescaped: printable
/// ASCII minus whitespace and the sample grammar's separators.
fn is_metric_value_safe(value: &str) -> bool {
    !value.is_empty()
        && value
            .chars()
            .all(|c| c.is_ascii_graphic() && !matches!(c, ';' | ':' | ',' | '{' | '}' | '='))
}

fn malformed(message: impl Into<String>) -> ApiError {
    ApiError::malformed(message)
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// A value with exactly one wire spelling: `take` reads back what `put`
/// wrote, bit for bit.
trait Wire: Sized {
    fn put(&self, out: &mut String) -> R<()>;
    fn take(s: &str) -> R<Self>;
}

/// A value type that travels in lists, and the separator its lists use.
trait Item: Wire {
    const SEP: char;
}

/// Writes `n` in decimal without going through `fmt`, which dominates
/// the cost of the integer-heavy row lists.
#[inline]
fn put_digits(mut n: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

macro_rules! numbers {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, out: &mut String) -> R<()> {
                put_digits(*self as u64, out);
                Ok(())
            }
            #[inline]
            fn take(s: &str) -> R<Self> {
                s.parse()
                    .map_err(|_| malformed(format!("{s:?} is not a non-negative integer")))
            }
        }
    )*};
}
numbers!(u32, u64, usize);

impl Wire for f64 {
    #[inline]
    fn put(&self, out: &mut String) -> R<()> {
        let _ = write!(out, "{self:?}");
        Ok(())
    }
    #[inline]
    fn take(s: &str) -> R<Self> {
        s.parse()
            .map_err(|_| malformed(format!("{s:?} is not a number")))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut String) -> R<()> {
        out.push_str(if *self { "true" } else { "false" });
        Ok(())
    }
    fn take(s: &str) -> R<Self> {
        match s {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(malformed(format!("{s:?} is not a boolean (true|false)"))),
        }
    }
}

/// Free text, percent-encoded: every byte outside `[A-Za-z0-9_.-]` becomes
/// `%XX`, so decode ∘ encode is the identity on arbitrary UTF-8.
impl Wire for String {
    fn put(&self, out: &mut String) -> R<()> {
        for b in self.bytes() {
            let c = b as char;
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                out.push(c);
            } else {
                let _ = write!(out, "%{b:02X}");
            }
        }
        Ok(())
    }
    fn take(s: &str) -> R<Self> {
        let mut bytes = Vec::with_capacity(s.len());
        let mut iter = s.bytes();
        while let Some(b) = iter.next() {
            if b != b'%' {
                bytes.push(b);
                continue;
            }
            let escape = [iter.next(), iter.next()];
            let value = match escape {
                [Some(hi), Some(lo)] => std::str::from_utf8(&[hi, lo])
                    .ok()
                    .and_then(|h| u8::from_str_radix(h, 16).ok()),
                _ => None,
            };
            bytes.push(value.ok_or_else(|| malformed(format!("text {s:?} has a bad %XX escape")))?);
        }
        String::from_utf8(bytes)
            .map_err(|_| malformed(format!("text {s:?} decodes to invalid UTF-8")))
    }
}

/// An optional positional part: `-` when absent.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut String) -> R<()> {
        match self {
            Some(v) => v.put(out),
            None => {
                out.push('-');
                Ok(())
            }
        }
    }
    fn take(s: &str) -> R<Self> {
        if s == "-" {
            Ok(None)
        } else {
            T::take(s).map(Some)
        }
    }
}

#[inline]
fn put_list<T: Item>(items: &[T], out: &mut String) -> R<()> {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(T::SEP);
        }
        item.put(out)?;
    }
    Ok(())
}

impl<T: Item> Wire for Vec<T> {
    #[inline]
    fn put(&self, out: &mut String) -> R<()> {
        put_list(self, out)
    }
    #[inline]
    fn take(s: &str) -> R<Self> {
        if s.is_empty() {
            return Ok(Vec::new());
        }
        s.split(T::SEP).map(T::take).collect()
    }
}

impl Wire for RelationRef {
    fn put(&self, out: &mut String) -> R<()> {
        match self {
            RelationRef::Id(id) => {
                out.push('#');
                id.put(out)
            }
            RelationRef::Name(name) => Name::put(name, out),
        }
    }
    fn take(s: &str) -> R<Self> {
        match s.strip_prefix('#') {
            Some(id) => usize::take(id).map(RelationRef::Id),
            None => Name::take(s).map(RelationRef::Name),
        }
    }
}

impl Wire for ErrorKind {
    fn put(&self, out: &mut String) -> R<()> {
        out.push_str(self.code());
        Ok(())
    }
    fn take(s: &str) -> R<Self> {
        ErrorKind::from_code(s).ok_or_else(|| malformed(format!("unknown error kind {s:?}")))
    }
}

/// Enums spelled as one keyword per variant.
macro_rules! keywords {
    ($($ty:ident { $($variant:ident = $word:literal),+ })+) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut String) -> R<()> {
                out.push_str(match self { $($ty::$variant => $word),+ });
                Ok(())
            }
            fn take(s: &str) -> R<Self> {
                match s {
                    $($word => Ok($ty::$variant),)+
                    _ => Err(malformed(format!(
                        concat!("{:?} is not one of" $(, " ", $word)+), s
                    ))),
                }
            }
        }
    )+};
}
keywords! {
    AccessKind { Distance = "distance", Score = "score" }
    Algorithm { Cbrr = "cbrr", Cbpa = "cbpa", Tbrr = "tbrr", Tbpa = "tbpa" }
    MetricKind { Counter = "c", Gauge = "g", Histogram = "h" }
}

// Codecs: how a field is spelled when its type's own `Wire` spelling is
// not the one wanted. A declaration names the codec after the field
// (`name: Name`); fields that name none use `Plain`.

/// The value type's own [`Wire`] spelling.
struct Plain;
impl Plain {
    #[inline]
    fn put<T: Wire>(v: &T, out: &mut String) -> R<()> {
        v.put(out)
    }
    #[inline]
    fn take<T: Wire>(s: &str) -> R<T> {
        T::take(s)
    }
}

/// Strings written unescaped, each refused unless its check passes.
macro_rules! checked_strings {
    ($($codec:ident: $check:ident, $what:literal;)+) => {$(
        struct $codec;
        impl $codec {
            fn put(v: &str, out: &mut String) -> R<()> {
                out.push_str($codec::checked(v)?);
                Ok(())
            }
            fn take(s: &str) -> R<String> {
                $codec::checked(s).map(str::to_string)
            }
            fn checked(s: &str) -> R<&str> {
                if $check(s) {
                    Ok(s)
                } else {
                    Err(malformed(format!(concat!("{:?} is not a wire-safe ", $what), s)))
                }
            }
        }
    )+};
}
checked_strings! {
    Name: is_wire_safe_name, "name ([A-Za-z0-9_.-]+, not starting with #)";
    Label: is_metric_value_safe, "metric label value";
}

/// An id where 0 would mean "none" and is refused.
struct NonZero;
impl NonZero {
    fn put(v: &u64, out: &mut String) -> R<()> {
        NonZero::checked(*v)?.put(out)
    }
    fn take(s: &str) -> R<u64> {
        NonZero::checked(u64::take(s)?)
    }
    fn checked(v: u64) -> R<u64> {
        if v == 0 {
            Err(malformed("id must be nonzero"))
        } else {
            Ok(v)
        }
    }
}

/// A list that must carry at least one element.
struct NonEmpty;
impl NonEmpty {
    fn put<T: Item>(v: &[T], out: &mut String) -> R<()> {
        put_list(v, out)
    }
    fn take<T: Item>(s: &str) -> R<Vec<T>> {
        let items = Vec::<T>::take(s)?;
        if items.is_empty() {
            return Err(malformed("list must be non-empty"));
        }
        Ok(items)
    }
}

macro_rules! codec {
    () => {
        Plain
    };
    ($c:ident) => {
        $c
    };
}

macro_rules! count {
    () => { 0 };
    ($head:ident $($tail:ident)*) => { 1 + count!($($tail)*) };
}

/// The parts of one record, split off in order; the last part keeps any
/// further separators.
struct Parts<'a> {
    whole: &'a str,
    rest: Option<&'a str>,
    left: usize,
    sep: char,
}

impl<'a> Parts<'a> {
    #[inline]
    fn new(whole: &'a str, count: usize, sep: char) -> Self {
        Parts {
            whole,
            rest: Some(whole),
            left: count,
            sep,
        }
    }

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        let rest = self.rest?;
        self.left -= 1;
        match rest.split_once(self.sep) {
            Some((head, tail)) if self.left > 0 => {
                self.rest = Some(tail);
                Some(head)
            }
            _ => {
                self.rest = None;
                Some(rest)
            }
        }
    }

    #[inline]
    fn part(&mut self) -> R<&'a str> {
        self.next()
            .ok_or_else(|| malformed(format!("{:?} is missing a part", self.whole)))
    }
}

/// A compound value: its parts in order, joined by one separator. The last
/// part keeps any further separators, and a trailing `[list]` part is
/// omitted, separator and all, while empty.
macro_rules! record {
    ($ty:ident, $sep:literal, {
        $first:ident $(: $fc:ident)? $(, $f:ident $(: $c:ident)?)* $(, [$o:ident])?
    }) => {
        impl Wire for $ty {
            #[inline]
            fn put(&self, out: &mut String) -> R<()> {
                let $ty { $first, $($f,)* $($o)? } = self;
                <codec!($($fc)?)>::put($first, out)?;
                $( out.push($sep); <codec!($($c)?)>::put($f, out)?; )*
                $( if !$o.is_empty() { out.push($sep); $o.put(out)?; } )?
                Ok(())
            }
            #[inline]
            fn take(s: &str) -> R<Self> {
                let mut parts = Parts::new(s, count!($first $($f)* $($o)?), $sep);
                Ok($ty {
                    $first: <codec!($($fc)?)>::take(parts.part()?)?,
                    $($f: <codec!($($c)?)>::take(parts.part()?)?,)*
                    $($o: parts.next().map(Wire::take).transpose()?.unwrap_or_default(),)?
                })
            }
        }
    };
    ($ty:ty, $sep:literal, ($first:ident $(: $fc:ident)?, $second:ident $(: $sc:ident)?)) => {
        impl Wire for $ty {
            #[inline]
            fn put(&self, out: &mut String) -> R<()> {
                let ($first, $second) = self;
                <codec!($($fc)?)>::put($first, out)?;
                out.push($sep);
                <codec!($($sc)?)>::put($second, out)
            }
            #[inline]
            fn take(s: &str) -> R<Self> {
                let mut parts = Parts::new(s, 2, $sep);
                Ok((
                    <codec!($($fc)?)>::take(parts.part()?)?,
                    <codec!($($sc)?)>::take(parts.part()?)?,
                ))
            }
        }
    };
}

/// An enum whose variants are records introduced by a tag part.
macro_rules! tagged {
    ($ty:ident, $sep:literal, {
        $($tag:literal => $variant:ident { $($f:ident),+ }),+ $(,)?
    }) => {
        impl Wire for $ty {
            fn put(&self, out: &mut String) -> R<()> {
                match self {
                    $($ty::$variant { $($f),+ } => {
                        out.push_str($tag);
                        $( out.push($sep); $f.put(out)?; )+
                    })+
                }
                Ok(())
            }
            fn take(s: &str) -> R<Self> {
                let (tag, rest) = s
                    .split_once($sep)
                    .ok_or_else(|| malformed(format!("{s:?} is missing its tag")))?;
                Ok(match tag {
                    $($tag => {
                        let mut parts = Parts::new(rest, count!($($f)+), $sep);
                        $ty::$variant { $($f: Wire::take(parts.part()?)?),+ }
                    })+
                    _ => return Err(malformed(format!("unknown tag {tag:?} in {s:?}"))),
                })
            }
        }
    };
}

record!(TupleData, ':', { coords: NonEmpty, score });
record!(ResultRow, '@', { score, tuples });
record!((usize, usize), ':', (relation, index));
record!(UnitRow, '@', { score, members: NonEmpty });
record!(UnitMember, ':', { relation, index, score, coords: NonEmpty });
record!(SpanRecord, ':', { name: Name, id: NonZero, parent, start_micros, duration_micros });
record!(MetricSample, ':', { name: Name, kind, value, [labels] });
record!((String, String), '=', (key: Name, value: Label));
record!(TrajectorySample, '~', { depth, kth_score, bound });
record!(RelationPlanStat, ':', { name, cardinality, skew, discount });
record!(UnitPlanReport, ':', { shard, algorithm, dominance_period, rationale });
record!(UnitProfile, ':', { shard, cache, remote, depths, micros, trajectory });
record!(TraceSummary, ':', { trace, class, root, duration_micros, spans });
record!(WorkerHealth, '@', { addr, reachable, idle_connections });
record!(TraceContext, ':', { trace: NonZero, parent });
record!(ScoringSelector, ':', { name: Name, [params] });
tagged!(ChangeEvent, ':', {
    "e" => Enter { rank, row },
    "x" => Exit { rank },
    "m" => RankChange { from, to },
    "s" => ScoreChange { rank, score },
});

macro_rules! items {
    ($($ty:ty => $sep:literal),+ $(,)?) => {
        $(impl Item for $ty { const SEP: char = $sep; })+
    };
}
items! {
    f64 => ',', u64 => ',', usize => ',', RelationRef => ',', Vec<u64> => '|',
    TupleData => ';', ResultRow => ';', (usize, usize) => '+', UnitRow => ';',
    UnitMember => '+', SpanRecord => ';', MetricSample => ';', (String, String) => ',',
    TrajectorySample => ',', ChangeEvent => ';', RelationPlanStat => ';',
    UnitPlanReport => ';', UnitProfile => ';', TraceSummary => ';', WorkerHealth => ';',
}

/// The error frame: `kind=<code> msg=<rest of line>`.
const ERR_KIND: &str = "kind=";
const ERR_MSG: &str = " msg=";

impl Wire for ApiError {
    fn put(&self, out: &mut String) -> R<()> {
        out.push_str(ERR_KIND);
        self.kind.put(out)?;
        out.push_str(ERR_MSG);
        // The message runs to the end of the line, so strip newlines.
        out.extend(self.message.chars().map(|c| match c {
            '\r' | '\n' => ' ',
            c => c,
        }));
        Ok(())
    }
    fn take(s: &str) -> R<Self> {
        let (kind, message) = s
            .strip_prefix(ERR_KIND)
            .and_then(|rest| rest.split_once(ERR_MSG))
            .ok_or_else(|| malformed(format!("error frame {s:?} is not kind=… msg=…")))?;
        Ok(ApiError::new(ErrorKind::take(kind)?, message))
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// At most this many `key=value` fields fit one line; the widest message
/// (`ok stats`) declares 12.
const MAX_FIELDS: usize = 16;

/// The `key=value` fields of one line. A key may be read once; a repeated
/// key, or one its message never reads, makes the line malformed.
struct FieldSet<'a> {
    fields: [(&'a str, &'a str); MAX_FIELDS],
    len: usize,
    read: u32,
}

impl<'a> FieldSet<'a> {
    fn parse(rest: &'a str) -> R<Self> {
        let mut set = FieldSet {
            fields: [("", ""); MAX_FIELDS],
            len: 0,
            read: 0,
        };
        for token in rest.split(' ').filter(|token| !token.is_empty()) {
            let field = token
                .split_once('=')
                .ok_or_else(|| malformed(format!("field {token:?} is not key=value")))?;
            let slot = set
                .fields
                .get_mut(set.len)
                .ok_or_else(|| malformed("too many fields"))?;
            *slot = field;
            set.len += 1;
        }
        Ok(set)
    }

    fn get(&mut self, key: &str) -> R<Option<&'a str>> {
        let mut found = None;
        for (i, (k, v)) in self.fields[..self.len].iter().enumerate() {
            if *k == key {
                if found.replace(*v).is_some() {
                    return Err(malformed(format!("{key}= appears twice")));
                }
                self.read |= 1 << i;
            }
        }
        Ok(found)
    }

    fn req(&mut self, key: &str) -> R<&'a str> {
        self.get(key)?
            .ok_or_else(|| malformed(format!("missing {key}=")))
    }

    fn finish(&self) -> R<()> {
        match (0..self.len).find(|i| self.read & (1 << i) == 0) {
            Some(i) => Err(malformed(format!("unknown key {}=", self.fields[i].0))),
            None => Ok(()),
        }
    }
}

fn is_default<T: Default + PartialEq>(v: &T) -> bool {
    *v == T::default()
}

/// A struct whose fields travel as `key=value` fields of a message.
trait Fields: Sized {
    fn put_fields(&self, out: &mut String) -> R<()>;
    fn take_fields(f: &mut FieldSet<'_>) -> R<Self>;
}

// A field is declared as `field: mode "key"`, optionally `as Codec`:
//   req   — always present;
//   opt   — an `Option`, present when `Some`;
//   def   — present unless it equals its type's default;
//   flat  — a nested `Fields` struct whose fields sit inline;
//   group — an optional nested `Fields` struct behind a `key=true|false`
//           flag.
macro_rules! put_field {
    (req, $out:ident, $v:ident, [$key:literal] $($c:ident)?) => {
        $out.push_str(concat!(" ", $key, "="));
        <codec!($($c)?)>::put($v, $out)?;
    };
    (opt, $out:ident, $v:ident, [$key:literal] $($c:ident)?) => {
        if let Some(v) = $v {
            put_field!(req, $out, v, [$key] $($c)?);
        }
    };
    (def, $out:ident, $v:ident, [$key:literal] $($c:ident)?) => {
        if !is_default($v) {
            put_field!(req, $out, $v, [$key] $($c)?);
        }
    };
    (flat, $out:ident, $v:ident, []) => {
        $v.put_fields($out)?;
    };
    (group, $out:ident, $v:ident, [$key:literal]) => {
        $out.push_str(concat!(" ", $key, "="));
        $v.is_some().put($out)?;
        if let Some(v) = $v {
            v.put_fields($out)?;
        }
    };
}

macro_rules! take_field {
    (req, $f:ident, [$key:literal] $($c:ident)?) => {
        <codec!($($c)?)>::take($f.req($key)?)?
    };
    (opt, $f:ident, [$key:literal] $($c:ident)?) => {
        match $f.get($key)? {
            Some(s) => Some(<codec!($($c)?)>::take(s)?),
            None => None,
        }
    };
    (def, $f:ident, [$key:literal] $($c:ident)?) => {
        match $f.get($key)? {
            Some(s) => <codec!($($c)?)>::take(s)?,
            None => Default::default(),
        }
    };
    (flat, $f:ident, []) => {
        Fields::take_fields($f)?
    };
    (group, $f:ident, [$key:literal]) => {
        if bool::take($f.req($key)?)? {
            Some(Fields::take_fields($f)?)
        } else {
            None
        }
    };
}

/// Structs carried as message fields; `=> check` names a whole-value
/// check run after decoding.
macro_rules! fields {
    ($($ty:ident {
        $($f:ident : $mode:ident $($key:literal)? $(as $c:ident)?),+ $(,)?
    } $(=> $check:ident)?)+) => {$(
        impl Fields for $ty {
            fn put_fields(&self, out: &mut String) -> R<()> {
                let $ty { $($f),+ } = self;
                $( put_field!($mode, out, $f, [$($key)?] $($c)?); )+
                Ok(())
            }
            fn take_fields(f: &mut FieldSet<'_>) -> R<Self> {
                let value = $ty { $($f: take_field!($mode, f, [$($key)?] $($c)?)),+ };
                $( $check(&value)?; )?
                Ok(value)
            }
        }
    )+};
}

fields! {
    QueryRequest {
        relations: req "rels" as NonEmpty,
        query: req "q",
        k: opt "k",
        scoring: opt "scoring",
        access: opt "access",
        algorithm: opt "algo",
        trace: opt "trace",
    }
    UnitRequest {
        relations: req "rels" as NonEmpty,
        epochs: req "epochs",
        drive: req "drive",
        shard: req "shard",
        query: req "q",
        k: req "k",
        scoring: req "scoring",
        access: req "access",
        algorithm: req "algo",
        dominance_period: opt "period",
        convergence: def "conv",
        trace: opt "trace",
    } => unit_is_consistent
    StatsReport {
        queries: req "queries",
        cache_hits: req "cache_hits",
        executed: req "executed",
        relations: req "relations",
        cache_entries: req "cache_entries",
        cache_invalidations: req "invalidations",
        total_sum_depths: req "sum_depths",
        shards: req "shards",
        shard_depths: def "shard_depths",
        shard_micros: def "shard_micros",
        worker_shard_depths: def "worker_shard_depths",
        worker_shard_micros: def "worker_shard_micros",
    }
    UnitOutcome {
        final_bound: req "bound",
        bound_updates: req "updates",
        combinations_formed: req "formed",
        micros: req "micros",
        capped: req "capped",
        depths: req "depths",
        spans: def "spans",
        trajectory: def "traj",
        rows: req "rows",
    }
    MetricsReport {
        samples: req "samples",
    }
    Notification {
        id: req "id",
        seq: req "seq",
        total: req "n",
        events: def "events",
        fin: opt "fin" as Name,
    }
    ExplainReport {
        algorithm: req "algo",
        drive: req "drive",
        k: req "k",
        rationale: req "rationale",
        relations: req "stats",
        units: req "uplans",
        analyzed: group "analyzed",
    }
    AnalyzeReport {
        latency_micros: req "micros",
        total_sum_depths: req "depths",
        units: req "prof",
        rows: req "rows",
    }
    HealthReport {
        ready: req "ready",
        live: req "live",
        role: req "role",
        replication_lag_micros: req "repl_us",
        delta_tuples: req "delta",
        oldest_delta_age_ms: req "delta_age_ms",
        sub_queue_depth: req "sub_depth",
        subscriptions: req "subs",
        traces_retained: req "traces",
        workers: def "workers",
    }
}

/// A unit names one epoch vector per relation and drives one of them.
fn unit_is_consistent(unit: &UnitRequest) -> R<()> {
    let n = unit.relations.len();
    if unit.epochs.len() != n {
        return Err(malformed(format!(
            "unit: {n} relations but {} epoch vectors",
            unit.epochs.len()
        )));
    }
    if unit.drive >= n {
        return Err(malformed(format!(
            "unit: drive={} is out of range for {n} relations",
            unit.drive
        )));
    }
    Ok(())
}

/// A message family: each variant's verb and fields. Generates
/// `$put(message, out)` and `$take(verb, rest)`. A variant is declared as
/// one of
///
/// * `"verb" => Variant` — no fields;
/// * `"verb" => Variant { field: mode "key", … }` — inline fields;
/// * `"verb" => Variant(Struct)` — the fields of one [`Fields`] struct;
/// * `"verb" => Variant("key")` — one required field;
/// * `"verb" => Variant(line Type)` — the rest of the line is one
///   [`Wire`] value.
macro_rules! messages {
    ($ty:ident: $put:ident, $take:ident; $($table:tt)*) => {
        messages!(@munch $ty, $put, $take, [message out rest f v], [], []; $($table)*);
    };
    (@munch $ty:ident, $put:ident, $take:ident, [$m:ident $out:ident $rest:ident $f:ident $v:ident],
        [$($pa:tt)*], [$($ta:tt)*];) => {
        fn $put($m: &$ty, $out: &mut String) -> R<()> {
            match $m { $($pa)* }
            Ok(())
        }
        fn $take(verb: &str, $rest: &str) -> R<$ty> {
            Ok(match verb {
                $($ta)*
                "" => return Err(malformed("empty message")),
                other => return Err(malformed(format!("unknown verb {other:?}"))),
            })
        }
    };
    (@munch $ty:ident, $put:ident, $take:ident, [$m:ident $out:ident $rest:ident $f:ident $v:ident],
        [$($pa:tt)*], [$($ta:tt)*]; $verb:literal => $variant:ident (line $inner:ident), $($tail:tt)*) => {
        messages!(@munch $ty, $put, $take, [$m $out $rest $f $v],
            [$($pa)* $ty::$variant($v) => {
                $out.push_str(concat!(" ", $verb, " "));
                $v.put($out)?;
            }],
            [$($ta)* $verb => $ty::$variant(<$inner as Wire>::take($rest)?),];
            $($tail)*);
    };
    (@munch $ty:ident, $put:ident, $take:ident, [$m:ident $out:ident $rest:ident $f:ident $v:ident],
        [$($pa:tt)*], [$($ta:tt)*]; $verb:literal => $variant:ident ($inner:ident), $($tail:tt)*) => {
        messages!(@munch $ty, $put, $take, [$m $out $rest $f $v],
            [$($pa)* $ty::$variant($v) => {
                $out.push_str(concat!(" ", $verb));
                $v.put_fields($out)?;
            }],
            [$($ta)* $verb => {
                let $f = &mut FieldSet::parse($rest)?;
                let message = $ty::$variant(<$inner as Fields>::take_fields($f)?);
                $f.finish()?;
                message
            }];
            $($tail)*);
    };
    (@munch $ty:ident, $put:ident, $take:ident, [$m:ident $out:ident $rest:ident $f:ident $v:ident],
        [$($pa:tt)*], [$($ta:tt)*]; $verb:literal => $variant:ident ($key:literal), $($tail:tt)*) => {
        messages!(@munch $ty, $put, $take, [$m $out $rest $f $v],
            [$($pa)* $ty::$variant($v) => {
                $out.push_str(concat!(" ", $verb));
                put_field!(req, $out, $v, [$key]);
            }],
            [$($ta)* $verb => {
                let $f = &mut FieldSet::parse($rest)?;
                let message = $ty::$variant(take_field!(req, $f, [$key]));
                $f.finish()?;
                message
            }];
            $($tail)*);
    };
    (@munch $ty:ident, $put:ident, $take:ident, [$m:ident $out:ident $rest:ident $f:ident $v:ident],
        [$($pa:tt)*], [$($ta:tt)*]; $verb:literal => $variant:ident {
            $($field:ident : $mode:ident $($key:literal)? $(as $c:ident)?),+ $(,)?
        }, $($tail:tt)*) => {
        messages!(@munch $ty, $put, $take, [$m $out $rest $f $v],
            [$($pa)* $ty::$variant { $($field),+ } => {
                $out.push_str(concat!(" ", $verb));
                $( put_field!($mode, $out, $field, [$($key)?] $($c)?); )+
            }],
            [$($ta)* $verb => {
                let $f = &mut FieldSet::parse($rest)?;
                let message = $ty::$variant {
                    $($field: take_field!($mode, $f, [$($key)?] $($c)?)),+
                };
                $f.finish()?;
                message
            }];
            $($tail)*);
    };
    (@munch $ty:ident, $put:ident, $take:ident, [$m:ident $out:ident $rest:ident $f:ident $v:ident],
        [$($pa:tt)*], [$($ta:tt)*]; $verb:literal => $variant:ident, $($tail:tt)*) => {
        messages!(@munch $ty, $put, $take, [$m $out $rest $f $v],
            [$($pa)* $ty::$variant => $out.push_str(concat!(" ", $verb)),],
            [$($ta)* $verb => {
                FieldSet::parse($rest)?.finish()?;
                $ty::$variant
            }];
            $($tail)*);
    };
}

messages! { Request: put_request, take_request;
    "register" => RegisterRelation { name: req "name" as Name, tuples: req "tuples" },
    "append" => AppendTuples { relation: req "rel", tuples: req "tuples" },
    "drop" => DropRelation { relation: req "rel" },
    "topk" => TopK(QueryRequest),
    "stream" => Stream(QueryRequest),
    "stats" => Stats,
    "hello" => Hello { max_version: req "max" },
    "unit" => ExecuteUnit(UnitRequest),
    "assign" => ShardAssignment { generation: req "gen", shards: req "shards" },
    "wstats" => WorkerStats,
    "metrics" => Metrics,
    "subscribe" => Subscribe(QueryRequest),
    "unsubscribe" => Unsubscribe { id: req "id" },
    "explain" => Explain { analyze: req "analyze", query: flat },
    "ftrace" => FetchTrace { trace: req "id" as NonZero },
    "traces" => ListTraces,
    "health" => Health,
}

messages! { Response: put_response, take_response;
    "ok registered" => Registered {
        id: req "id",
        name: req "name" as Name,
        epoch: req "epoch",
        cardinality: req "n",
    },
    "ok appended" => Appended { id: req "id", epoch: req "epoch", cardinality: req "n" },
    "ok dropped" => Dropped { id: req "id", epoch: req "epoch" },
    "ok results" => Results { from_cache: req "cached", algorithm: req "algo", rows: req "rows" },
    "ok item" => StreamItem("row"),
    "ok end" => StreamEnd { count: req "n" },
    "ok stats" => Stats(StatsReport),
    "ok hello" => HelloAck { version: req "ver" },
    "ok unit" => Unit(UnitOutcome),
    "ok assigned" => AssignmentAck { generation: req "gen", shards: req "shards" },
    "ok worker" => WorkerReport {
        generation: req "gen",
        shards: req "shards",
        units: req "units",
        depths: req "depths",
        relations: req "relations",
        lane_units: def "lane_units",
        lane_depths: def "lane_depths",
        lane_micros: def "lane_micros",
    },
    "ok metrics" => Metrics(MetricsReport),
    "ok subscribed" => Subscribed { id: req "id", algorithm: req "algo", rows: req "rows" },
    "ok unsubscribed" => Unsubscribed { id: req "id" },
    "ok notify" => Notify(Notification),
    "ok explain" => Explain(ExplainReport),
    "ok trace" => Trace { trace: req "id", class: req "class", spans: req "spans" },
    "ok traces" => Traces { traces: req "list" },
    "ok health" => Health(HealthReport),
    "err" => Error(line ApiError),
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Splits off the `prj/2` prefix. Any other `prj/N` prefix is a typed
/// [`ErrorKind::Version`] error; a line that is not `prj/…` at all is
/// malformed.
fn strip_version(line: &str) -> R<&str> {
    let line = line.trim_end_matches(['\r', '\n']);
    let (head, rest) = line.split_once(' ').unwrap_or((line, ""));
    let rest = rest.trim_start_matches(' ');
    let Some(version) = head.strip_prefix("prj/") else {
        return Err(malformed(format!(
            "expected a {PREFIX} message, got {head:?}"
        )));
    };
    if version != "2" {
        return Err(ApiError::new(
            ErrorKind::Version,
            format!("peer speaks prj/{version}, this build speaks only {PREFIX}"),
        ));
    }
    Ok(rest)
}

/// Splits a message into its verb and fields. A response verb is `err` or
/// `ok <form>`.
fn split_verb(rest: &str) -> (&str, &str) {
    let skip = if rest.starts_with("ok ") { 3 } else { 0 };
    match rest[skip..].find(' ') {
        Some(i) => (&rest[..skip + i], &rest[skip + i + 1..]),
        None => (rest, ""),
    }
}

/// Encodes a request as one `prj/2` line (no trailing newline).
///
/// # Errors
/// Fails with [`ErrorKind::Malformed`] when a name is not wire-safe.
pub fn encode_request(request: &Request) -> Result<String, ApiError> {
    encode_request_at(request, PROTOCOL_VERSION)
}

/// Encodes a request at an explicit protocol version, which must be
/// [`PROTOCOL_VERSION`].
///
/// # Errors
/// [`ErrorKind::Version`] for any other version, [`ErrorKind::Malformed`]
/// when a name is not wire-safe.
pub fn encode_request_at(request: &Request, version: u32) -> Result<String, ApiError> {
    if version != PROTOCOL_VERSION {
        return Err(ApiError::new(
            ErrorKind::Version,
            format!("cannot encode at prj/{version}, this build speaks only {PREFIX}"),
        ));
    }
    let mut out = String::from(PREFIX);
    put_request(request, &mut out)?;
    Ok(out)
}

/// Decodes one request line.
///
/// # Errors
/// [`ErrorKind::Version`] on any prefix other than `prj/2`,
/// [`ErrorKind::Malformed`] on anything unparseable.
pub fn decode_request(line: &str) -> Result<Request, ApiError> {
    decode_request_versioned(line).map(|(_, request)| request)
}

/// Decodes one request line, returning the protocol version it arrived in
/// (always [`PROTOCOL_VERSION`]) with the request.
///
/// # Errors
/// As [`decode_request`].
pub fn decode_request_versioned(line: &str) -> Result<(u32, Request), ApiError> {
    let (verb, rest) = split_verb(strip_version(line)?);
    Ok((PROTOCOL_VERSION, take_request(verb, rest)?))
}

/// Encodes a response as one `prj/2` line (no trailing newline).
pub fn encode_response(response: &Response) -> String {
    encode_response_at(response, PROTOCOL_VERSION)
}

/// Encodes a response to a request that arrived at `version`, which
/// decoding has already pinned to [`PROTOCOL_VERSION`]. A response that
/// cannot be encoded (a name that is not wire-safe) is answered with the
/// typed error instead.
pub fn encode_response_at(response: &Response, version: u32) -> String {
    debug_assert_eq!(version, PROTOCOL_VERSION, "there is one dialect");
    let mut out = String::from(PREFIX);
    if let Err(e) = put_response(response, &mut out) {
        out.truncate(PREFIX.len());
        let _ = put_response(&Response::Error(e), &mut out);
    }
    out
}

/// Decodes one response line. A well-formed `err` line decodes to
/// `Ok(Response::Error(..))`; the `Err` side is for lines this codec cannot
/// understand at all.
pub fn decode_response(line: &str) -> Result<Response, ApiError> {
    let (verb, rest) = split_verb(strip_version(line)?);
    take_response(verb, rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_round_trip(request: Request) {
        let line = encode_request(&request).expect("encode");
        assert!(line.starts_with("prj/2 "), "versioned: {line}");
        let decoded = decode_request(&line).expect("decode");
        assert_eq!(decoded, request, "wire line was: {line}");
    }

    fn response_round_trip(response: Response) {
        let line = encode_response(&response);
        assert!(line.starts_with("prj/2 "), "versioned: {line}");
        let decoded = decode_response(&line).expect("decode");
        assert_eq!(decoded, response, "wire line was: {line}");
    }

    #[test]
    fn requests_round_trip() {
        request_round_trip(Request::RegisterRelation {
            name: "hotels-2.a_b".to_string(),
            tuples: vec![
                TupleData::new([0.0, -0.5], 0.5),
                TupleData::new([1e-7, 2.25], 1.0),
            ],
        });
        request_round_trip(Request::RegisterRelation {
            name: "empty".to_string(),
            tuples: Vec::new(),
        });
        request_round_trip(Request::AppendTuples {
            relation: RelationRef::Id(3),
            tuples: vec![TupleData::new([0.125], 0.25)],
        });
        request_round_trip(Request::DropRelation {
            relation: RelationRef::Name("hotels".to_string()),
        });
        request_round_trip(Request::TopK(QueryRequest::new(
            vec![RelationRef::Id(0), RelationRef::Name("r2".to_string())],
            [0.0, 0.0],
        )));
        request_round_trip(Request::Stream(
            QueryRequest::new(vec![RelationRef::Id(1)], [0.5, -0.5])
                .k(7)
                .scoring(ScoringSelector::with_params(
                    "euclidean-log",
                    [1.0, 2.0, 0.5],
                ))
                .access(AccessKind::Score)
                .algorithm(Algorithm::Tbpa),
        ));
        request_round_trip(Request::Stats);
    }

    #[test]
    fn responses_round_trip() {
        response_round_trip(Response::Registered {
            id: 0,
            name: "hotels".to_string(),
            epoch: 0,
            cardinality: 2,
        });
        response_round_trip(Response::Appended {
            id: 4,
            epoch: 7,
            cardinality: 19,
        });
        response_round_trip(Response::Dropped { id: 1, epoch: 2 });
        response_round_trip(Response::Results {
            rows: vec![
                ResultRow {
                    score: -7.0,
                    tuples: vec![(0, 1), (1, 0), (2, 0)],
                },
                ResultRow {
                    score: -8.4,
                    tuples: vec![(0, 0), (1, 0), (2, 0)],
                },
            ],
            from_cache: true,
            algorithm: "TBRR".to_string(),
        });
        response_round_trip(Response::Results {
            rows: Vec::new(),
            from_cache: false,
            algorithm: "CBPA".to_string(),
        });
        response_round_trip(Response::StreamItem(ResultRow {
            score: -1.5e-9,
            tuples: vec![(0, 3)],
        }));
        response_round_trip(Response::StreamEnd { count: 8 });
        response_round_trip(Response::Stats(StatsReport {
            queries: 10,
            cache_hits: 4,
            executed: 6,
            relations: 3,
            cache_entries: 5,
            cache_invalidations: 2,
            total_sum_depths: 123,
            shards: 1,
            shard_depths: Vec::new(),
            shard_micros: Vec::new(),
            worker_shard_depths: Vec::new(),
            worker_shard_micros: Vec::new(),
        }));
        response_round_trip(Response::Stats(StatsReport {
            queries: 7,
            cache_hits: 0,
            executed: 7,
            relations: 2,
            cache_entries: 7,
            cache_invalidations: 0,
            total_sum_depths: 456,
            shards: 4,
            shard_depths: vec![100, 0, 300, 56],
            shard_micros: vec![90, 0, 250, 40],
            worker_shard_depths: Vec::new(),
            worker_shard_micros: Vec::new(),
        }));
        response_round_trip(Response::Error(ApiError::new(
            ErrorKind::UnknownRelation,
            "no relation named bars; try register first",
        )));
    }

    #[test]
    fn stats_without_shard_fields_decode_with_defaults() {
        // The per-shard breakdowns are omitted while empty and decode empty.
        let line = "prj/2 ok stats queries=1 cache_hits=0 executed=1 relations=1 \
                    cache_entries=1 invalidations=0 sum_depths=9 shards=1";
        match decode_response(line).unwrap() {
            Response::Stats(s) => {
                assert_eq!(s.shards, 1);
                assert!(s.shard_depths.is_empty());
                assert!(s.shard_micros.is_empty());
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for value in [
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            -1.0 / 3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e308,
        ] {
            let request = Request::TopK(QueryRequest::new(vec![RelationRef::Id(0)], [value]));
            let line = encode_request(&request).unwrap();
            match decode_request(&line).unwrap() {
                Request::TopK(q) => assert_eq!(q.query[0].to_bits(), value.to_bits()),
                other => panic!("unexpected decode: {other:?}"),
            }
        }
    }

    #[test]
    fn version_mismatch_is_detected() {
        let err = decode_request("prj/3 stats").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Version);
        let err = decode_response("prj/0 ok end n=1").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Version);
        let err = decode_request("http/1.1 GET /").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Malformed);
        // A prj/1 peer is refused with one typed version error, whatever
        // the line says.
        let err = decode_request("prj/1 stats").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Version);
        let err = decode_response("prj/1 ok end n=3").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Version);
        let err = encode_request_at(&Request::Stats, 1).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Version);
    }

    fn sample_unit_request() -> Request {
        Request::ExecuteUnit(UnitRequest {
            relations: vec![RelationRef::Id(0), RelationRef::Name("r2".to_string())],
            epochs: vec![vec![0, 3, 0], vec![1]],
            drive: 0,
            shard: 2,
            query: vec![0.5, -0.25],
            k: 7,
            scoring: ScoringSelector::with_params("euclidean-log", [1.0, 2.0, 0.5]),
            access: AccessKind::Distance,
            algorithm: Algorithm::Tbpa,
            dominance_period: Some(50),
            convergence: 0,
            trace: None,
        })
    }

    #[test]
    fn cluster_requests_round_trip_at_v2() {
        for request in [
            Request::Hello { max_version: 2 },
            sample_unit_request(),
            Request::ShardAssignment {
                generation: 4,
                shards: vec![0, 2, 5],
            },
            Request::ShardAssignment {
                generation: 0,
                shards: Vec::new(),
            },
            Request::WorkerStats,
            Request::Metrics,
        ] {
            let line = encode_request(&request).expect("encode");
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_request(&line).expect("decode"), request);
        }
    }

    #[test]
    fn subscription_messages_round_trip_at_v2() {
        let row_a = ResultRow {
            score: -3.25,
            tuples: vec![(0, 4), (1, 7)],
        };
        let row_b = ResultRow {
            score: f64::NEG_INFINITY,
            tuples: vec![(0, 0), (1, 1)],
        };
        for request in [
            Request::Subscribe(
                QueryRequest::new(vec![RelationRef::Id(0), "pois".into()], [0.5]).k(3),
            ),
            Request::Unsubscribe { id: 17 },
        ] {
            let line = encode_request(&request).expect("encode");
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_request(&line).expect("decode"), request);
        }
        for response in [
            Response::Subscribed {
                id: 9,
                algorithm: "TBPA".to_string(),
                rows: vec![row_a.clone(), row_b.clone()],
            },
            Response::Subscribed {
                id: 0,
                algorithm: "HRJN-star".to_string(),
                rows: Vec::new(),
            },
            Response::Unsubscribed { id: 9 },
            Response::Notify(Notification {
                id: 9,
                seq: 1,
                total: 2,
                events: vec![
                    ChangeEvent::Exit { rank: 0 },
                    ChangeEvent::Enter {
                        rank: 1,
                        row: row_a.clone(),
                    },
                    ChangeEvent::RankChange { from: 1, to: 0 },
                    ChangeEvent::ScoreChange {
                        rank: 0,
                        score: -0.125,
                    },
                ],
                fin: None,
            }),
            Response::Notify(Notification {
                id: 3,
                seq: 12,
                total: 0,
                events: vec![ChangeEvent::Exit { rank: 0 }],
                fin: Some("drop".to_string()),
            }),
            Response::Notify(Notification {
                id: 3,
                seq: 2,
                total: 1,
                events: Vec::new(),
                fin: Some("error".to_string()),
            }),
        ] {
            let line = encode_response(&response);
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_response(&line).expect("decode"), response);
        }
    }

    #[test]
    fn malformed_events_are_rejected() {
        for events in ["z:1", "x:", "x:1:junk", "m:1", "e:0", "s:0:abc", "m:1:2:3"] {
            let line = format!("prj/2 ok notify id=0 seq=1 n=0 events={events}");
            assert!(decode_response(&line).is_err(), "events: {events}");
        }
    }

    #[test]
    fn cluster_responses_round_trip_at_v2() {
        for response in [
            Response::HelloAck { version: 2 },
            Response::Unit(UnitOutcome {
                rows: vec![
                    UnitRow {
                        score: -7.25,
                        members: vec![
                            UnitMember {
                                relation: 0,
                                index: 3,
                                score: 0.5,
                                coords: vec![0.0, -0.5],
                            },
                            UnitMember {
                                relation: 1,
                                index: 0,
                                score: 1.0,
                                coords: vec![1e-7, 2.25],
                            },
                        ],
                    },
                    UnitRow {
                        score: f64::NEG_INFINITY,
                        members: vec![UnitMember {
                            relation: 0,
                            index: 0,
                            score: 0.125,
                            coords: vec![3.0],
                        }],
                    },
                ],
                final_bound: f64::NEG_INFINITY,
                depths: vec![4, 9],
                bound_updates: 13,
                combinations_formed: 20,
                micros: 843,
                capped: false,
                spans: vec![
                    SpanRecord {
                        name: "execute_unit".to_string(),
                        id: 11,
                        parent: 0,
                        start_micros: 1000,
                        duration_micros: 840,
                    },
                    SpanRecord {
                        name: "drain".to_string(),
                        id: 12,
                        parent: 11,
                        start_micros: 1010,
                        duration_micros: 600,
                    },
                ],
                trajectory: vec![TrajectorySample {
                    depth: 13,
                    kth_score: -7.25,
                    bound: -2.0,
                }],
            }),
            Response::Unit(UnitOutcome {
                rows: Vec::new(),
                final_bound: -2.5,
                depths: vec![0, 0],
                bound_updates: 0,
                combinations_formed: 0,
                micros: 1,
                capped: true,
                spans: Vec::new(),
                trajectory: Vec::new(),
            }),
            Response::AssignmentAck {
                generation: 9,
                shards: vec![1, 3],
            },
            Response::WorkerReport {
                generation: 9,
                shards: vec![1, 3],
                units: 17,
                depths: 1234,
                relations: 3,
                lane_units: Vec::new(),
                lane_depths: Vec::new(),
                lane_micros: Vec::new(),
            },
            Response::WorkerReport {
                generation: 10,
                shards: vec![0, 2],
                units: 5,
                depths: 321,
                relations: 2,
                lane_units: vec![3, 0, 2],
                lane_depths: vec![200, 0, 121],
                lane_micros: vec![1500, 0, 900],
            },
            Response::Metrics(MetricsReport {
                samples: vec![
                    MetricSample {
                        name: "prj_queries_total".to_string(),
                        labels: Vec::new(),
                        kind: MetricKind::Counter,
                        value: 12.0,
                    },
                    MetricSample {
                        name: "prj_query_latency_seconds_bucket".to_string(),
                        labels: vec![
                            ("instance".to_string(), "worker0".to_string()),
                            ("le".to_string(), "+Inf".to_string()),
                        ],
                        kind: MetricKind::Histogram,
                        value: 12.0,
                    },
                    MetricSample {
                        name: "prj_cache_entries".to_string(),
                        labels: Vec::new(),
                        kind: MetricKind::Gauge,
                        value: 0.5,
                    },
                ],
            }),
            Response::Metrics(MetricsReport::default()),
        ] {
            let line = encode_response(&response);
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_response(&line).expect("decode"), response);
        }
    }

    #[test]
    fn traced_queries_round_trip_at_v2() {
        let trace = TraceContext {
            trace: 0xdead_beef_cafe_f00d,
            parent: 42,
        };
        for request in [
            Request::TopK(QueryRequest::new(vec![RelationRef::Id(0)], [0.5]).traced(trace)),
            Request::Stream(QueryRequest::new(vec![RelationRef::Id(1)], [0.0, 1.0]).traced(trace)),
            Request::ExecuteUnit(UnitRequest {
                trace: Some(TraceContext {
                    trace: 7,
                    parent: 0,
                }),
                ..match sample_unit_request() {
                    Request::ExecuteUnit(unit) => unit,
                    _ => unreachable!(),
                }
            }),
        ] {
            let line = encode_request(&request).expect("encode");
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_request(&line).expect("decode"), request);
        }
    }

    #[test]
    fn malformed_observability_fields_are_rejected() {
        for line in [
            "prj/2 topk rels=#0 q=0.0 trace=7",   // missing parent
            "prj/2 topk rels=#0 q=0.0 trace=0:0", // zero trace id
            "prj/2 topk rels=#0 q=0.0 trace=x:1", // non-numeric
            "prj/2 ok unit bound=0.0 updates=0 formed=0 micros=0 capped=false \
             depths= spans=a:0:0:0:0 rows=", // span id 0
            "prj/2 ok unit bound=0.0 updates=0 formed=0 micros=0 capped=false \
             depths= spans=a:1:0:0 rows=", // span missing a field
            "prj/2 ok metrics samples=name:x:1.0", // unknown kind
            "prj/2 ok metrics samples=name:c:1.0:k", // label without =
            "prj/2 ok metrics samples=name:c:1.0:k=a;b", // unsafe label value
            "prj/2 ok metrics samples=name:c",    // missing value
        ] {
            let rejected = if line.contains(" ok ") {
                decode_response(line).is_err()
            } else {
                decode_request(line).is_err()
            };
            assert!(rejected, "line should be rejected: {line}");
        }
    }

    #[test]
    fn unit_outcomes_without_spans_decode_empty() {
        // Lines from pre-tracing workers decode with no spans attached.
        let line = "prj/2 ok unit bound=-1.5 updates=3 formed=4 micros=99 \
                    capped=false depths=5,6 rows=";
        match decode_response(line).unwrap() {
            Response::Unit(unit) => assert!(unit.spans.is_empty()),
            other => panic!("unexpected decode: {other:?}"),
        }
        // Likewise worker reports without lanes.
        let line = "prj/2 ok worker gen=1 shards=0 units=2 depths=30 relations=1";
        match decode_response(line).unwrap() {
            Response::WorkerReport { lane_units, .. } => assert!(lane_units.is_empty()),
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for line in [
            "prj/2",
            "prj/2 frobnicate x=1",
            "prj/2 register tuples=1:1",                // missing name
            "prj/2 register name=a;b tuples=",          // unsafe name
            "prj/2 topk q=0.0",                         // missing rels
            "prj/2 topk rels= q=0.0",                   // empty rels
            "prj/2 topk rels=#x q=0.0",                 // bad id
            "prj/2 topk rels=a q=zero",                 // bad float
            "prj/2 topk rels=a q=0.0 algo=newton",      // bad algorithm
            "prj/2 topk rels=a q=0.0 access=telepathy", // bad access kind
            "prj/2 append rel=a tuples=1,2",            // tuple missing score
            "prj/2 stats k",                            // token without =
        ] {
            assert!(
                decode_request(line).is_err(),
                "line should be rejected: {line}"
            );
        }
    }

    #[test]
    fn error_messages_survive_spaces_and_equals_signs() {
        let original = Response::Error(ApiError::new(
            ErrorKind::InvalidParams,
            "weights must satisfy w_q > 0, got w_q = 0 (and w_s = 2)",
        ));
        let line = encode_response(&original);
        assert_eq!(decode_response(&line).unwrap(), original);
    }

    #[test]
    fn newlines_in_error_messages_cannot_break_framing() {
        let line = encode_response(&Response::Error(ApiError::new(
            ErrorKind::Internal,
            "first\nsecond",
        )));
        assert!(!line.contains('\n'));
        match decode_response(&line).unwrap() {
            Response::Error(e) => assert_eq!(e.message, "first second"),
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn diagnostics_requests_round_trip_at_v2() {
        let query = QueryRequest::new(vec![RelationRef::Id(0), "spots".into()], [0.5, -1.0]).k(3);
        for request in [
            Request::Explain {
                query: query.clone(),
                analyze: false,
            },
            Request::Explain {
                query,
                analyze: true,
            },
            Request::FetchTrace {
                trace: 0xdead_beef_cafe_f00d,
            },
            Request::ListTraces,
            Request::Health,
        ] {
            let line = encode_request(&request).expect("encode");
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_request(&line).expect("decode"), request);
        }
    }

    #[test]
    fn explain_responses_round_trip_at_v2() {
        let plan = ExplainReport {
            algorithm: "CBPA".to_string(),
            drive: 1,
            k: 10,
            rationale: "skewed drive: discount 3.5 > threshold".to_string(),
            relations: vec![
                RelationPlanStat {
                    name: "hotels".to_string(),
                    cardinality: 4000,
                    skew: 2.5,
                    discount: 0.4,
                },
                RelationPlanStat {
                    name: "spots 2".to_string(),
                    cardinality: 120,
                    skew: -0.25,
                    discount: 1.0,
                },
            ],
            units: vec![
                UnitPlanReport {
                    shard: 0,
                    algorithm: "CBPA".to_string(),
                    dominance_period: Some(50),
                    rationale: "large shard, LP dominance on".to_string(),
                },
                UnitPlanReport {
                    shard: 1,
                    algorithm: "CBRR".to_string(),
                    dominance_period: None,
                    rationale: String::new(),
                },
            ],
            analyzed: None,
        };
        let analyzed = ExplainReport {
            analyzed: Some(AnalyzeReport {
                rows: vec![
                    ResultRow {
                        score: -3.25,
                        tuples: vec![(0, 4), (1, 7)],
                    },
                    ResultRow {
                        score: -7.5,
                        tuples: vec![(0, 1), (1, 0)],
                    },
                ],
                latency_micros: 1234,
                total_sum_depths: 88,
                units: vec![
                    UnitProfile {
                        shard: 0,
                        cache: "fresh".to_string(),
                        remote: true,
                        depths: 60,
                        micros: 900,
                        trajectory: vec![
                            TrajectorySample {
                                depth: 16,
                                kth_score: f64::NEG_INFINITY,
                                bound: -1.5,
                            },
                            TrajectorySample {
                                depth: 60,
                                kth_score: -3.25,
                                bound: -3.25,
                            },
                        ],
                    },
                    UnitProfile {
                        shard: 1,
                        cache: "delta-merged".to_string(),
                        remote: false,
                        depths: 28,
                        micros: 300,
                        trajectory: Vec::new(),
                    },
                ],
            }),
            ..plan.clone()
        };
        for response in [Response::Explain(plan), Response::Explain(analyzed)] {
            let line = encode_response(&response);
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_response(&line).expect("decode"), response, "{line}");
        }
    }

    #[test]
    fn trace_and_health_responses_round_trip_at_v2() {
        for response in [
            Response::Trace {
                trace: 99,
                class: "slow".to_string(),
                spans: vec![SpanRecord {
                    name: "query".to_string(),
                    id: 1,
                    parent: 0,
                    start_micros: 10,
                    duration_micros: 2000,
                }],
            },
            Response::Traces {
                traces: vec![
                    TraceSummary {
                        trace: 7,
                        class: "error".to_string(),
                        root: "query".to_string(),
                        duration_micros: 55,
                        spans: 3,
                    },
                    TraceSummary {
                        trace: 8,
                        class: "ok".to_string(),
                        root: "unit shard 0".to_string(),
                        duration_micros: 9,
                        spans: 1,
                    },
                ],
            },
            Response::Traces { traces: Vec::new() },
            Response::Health(HealthReport {
                ready: true,
                live: true,
                role: "coordinator".to_string(),
                replication_lag_micros: 120,
                delta_tuples: 4,
                oldest_delta_age_ms: 250,
                sub_queue_depth: 1,
                subscriptions: 2,
                traces_retained: 17,
                workers: vec![
                    WorkerHealth {
                        addr: "127.0.0.1:9001".to_string(),
                        reachable: true,
                        idle_connections: 2,
                    },
                    WorkerHealth {
                        addr: "127.0.0.1:9002".to_string(),
                        reachable: false,
                        idle_connections: 0,
                    },
                ],
            }),
            Response::Health(HealthReport::default()),
        ] {
            let line = encode_response(&response);
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_response(&line).expect("decode"), response, "{line}");
        }
    }

    #[test]
    fn unit_trajectories_ride_the_outcome() {
        let outcome = Response::Unit(UnitOutcome {
            rows: Vec::new(),
            final_bound: -2.0,
            depths: vec![5, 6],
            bound_updates: 3,
            combinations_formed: 4,
            micros: 99,
            capped: false,
            spans: Vec::new(),
            trajectory: vec![TrajectorySample {
                depth: 8,
                kth_score: -1.0,
                bound: -0.5,
            }],
        });
        let line = encode_response(&outcome);
        assert_eq!(decode_response(&line).expect("decode"), outcome, "{line}");
        // Lines from pre-diagnostics workers decode with an empty trajectory.
        let line = "prj/2 ok unit bound=-1.5 updates=3 formed=4 micros=99 \
                    capped=false depths=5,6 rows=";
        match decode_response(line).unwrap() {
            Response::Unit(unit) => assert!(unit.trajectory.is_empty()),
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn percent_encoded_text_round_trips() {
        for text in [
            "",
            "plain",
            "two words, one comma; a colon: done = yes (100%)",
            "newline\nand tab\t",
            "ünïcode ✓",
        ] {
            let mut out = String::new();
            text.to_string().put(&mut out).expect("text always encodes");
            assert!(
                out.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '%')),
                "encoded: {out}"
            );
            assert_eq!(String::take(&out).expect("decode"), text);
        }
        // Truncated and non-hex escapes are rejected, not panics.
        assert!(String::take("abc%").is_err());
        assert!(String::take("abc%2").is_err());
        assert!(String::take("abc%zz").is_err());
        // An escape sequence that breaks UTF-8 is rejected.
        assert!(String::take("%ff%fe").is_err());
    }

    #[test]
    fn wire_safe_names() {
        assert!(is_wire_safe_name("hotels"));
        assert!(is_wire_safe_name("r2-d2_v1.5"));
        assert!(!is_wire_safe_name(""));
        assert!(!is_wire_safe_name("#3"));
        assert!(!is_wire_safe_name("two words"));
        assert!(!is_wire_safe_name("a=b"));
        assert!(!is_wire_safe_name("a;b"));
        assert!(!is_wire_safe_name("a,b"));
    }

    fn rejected(line: &str) -> ApiError {
        let decoded = if line.starts_with("prj/2 ok ") {
            decode_response(line).map(|r| format!("{r:?}"))
        } else {
            decode_request(line).map(|r| format!("{r:?}"))
        };
        match decoded {
            Err(e) => e,
            Ok(parsed) => panic!("{line:?} should be rejected, parsed as {parsed}"),
        }
    }

    #[test]
    fn booleans_have_one_spelling() {
        let unit = "prj/2 ok unit bound=0.0 updates=0 formed=0 micros=0 depths= rows=";
        let health = "prj/2 ok health role=single repl_us=0 delta=0 delta_age_ms=0 \
                      sub_depth=0 subs=0 traces=0";
        let explain = "prj/2 ok explain algo=CBRR drive=0 k=1 rationale= stats= uplans=";
        let analyzed = "micros=1 depths=2 rows=";
        for bad in ["1", "0", "maybe", "True", ""] {
            for line in [
                // Request flag.
                format!("prj/2 explain analyze={bad} rels=a q=0"),
                // Response flags.
                format!("prj/2 ok results cached={bad} algo=TBRR rows="),
                format!("{unit} capped={bad}"),
                format!("{health} ready={bad} live=true"),
                format!("{health} ready=true live={bad}"),
                format!("{explain} analyzed={bad}"),
                // Flags inside compound records.
                format!("{explain} analyzed=true {analyzed} prof=0:fresh:{bad}:1:2:"),
                format!("{health} ready=true live=true workers=a@{bad}@0"),
            ] {
                assert_eq!(rejected(&line).kind, ErrorKind::Malformed, "{line}");
            }
        }
        // The accepted spelling decodes to both values.
        for (word, value) in [("true", true), ("false", false)] {
            let line = format!("prj/2 explain analyze={word} rels=a q=0");
            match decode_request(&line).unwrap() {
                Request::Explain { analyze, .. } => assert_eq!(analyze, value),
                other => panic!("unexpected decode: {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_and_repeated_keys_are_malformed() {
        for line in [
            "prj/2 topk rels=a q=0 kk=5",
            "prj/2 topk rels=a q=0 k=3 k=9",
            "prj/2 stats bogus=1",
            "prj/2 stats bogus=1 bogus=2",
            "prj/2 explain analyze=false rels=a q=0 analyze=true",
            "prj/2 ok end n=1 n=2",
            "prj/2 ok end n=1 rows=",
            // Analysis fields behind analyzed=false are unknown keys.
            "prj/2 ok explain algo=CBRR drive=0 k=1 rationale= stats= uplans= \
             analyzed=false micros=1",
        ] {
            assert_eq!(rejected(line).kind, ErrorKind::Malformed, "{line}");
        }
    }
}

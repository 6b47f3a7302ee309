//! The ForkBase data types (§3.4): primitive types, optimized for fast
//! access and embedded directly in the meta chunk, and chunkable types,
//! stored as POS-Trees and deduplicated.

use crate::error::{FbError, Result};
use bytes::Bytes;
use forkbase_chunk::codec::{get_bytes, get_varint, put_bytes, put_varint};
use forkbase_crypto::Digest;
use forkbase_pos::{Blob, List, Map, Set, TreeType};

/// Type tag of a [`Value`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ValueType {
    /// Primitive boolean.
    Bool = 0,
    /// Primitive 64-bit signed integer.
    Int = 1,
    /// Primitive string, embedded in the meta chunk.
    String = 2,
    /// Primitive tuple of byte strings.
    Tuple = 3,
    /// Chunkable byte sequence (POS-Tree).
    Blob = 4,
    /// Chunkable element sequence.
    List = 5,
    /// Chunkable sorted set.
    Set = 6,
    /// Chunkable sorted map.
    Map = 7,
}

impl ValueType {
    /// Decode the tag byte.
    pub fn from_u8(v: u8) -> Option<ValueType> {
        Some(match v {
            0 => ValueType::Bool,
            1 => ValueType::Int,
            2 => ValueType::String,
            3 => ValueType::Tuple,
            4 => ValueType::Blob,
            5 => ValueType::List,
            6 => ValueType::Set,
            7 => ValueType::Map,
            _ => return None,
        })
    }

    /// Short name for error messages.
    pub fn name(self) -> &'static str {
        match self {
            ValueType::Bool => "Bool",
            ValueType::Int => "Int",
            ValueType::String => "String",
            ValueType::Tuple => "Tuple",
            ValueType::Blob => "Blob",
            ValueType::List => "List",
            ValueType::Set => "Set",
            ValueType::Map => "Map",
        }
    }
}

/// A ForkBase value: either a primitive (embedded) or a chunkable handle
/// (POS-Tree root).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer. Supports `Add`/`Multiply` ops.
    Int(i64),
    /// Small string. Supports `Append`/`Insert` ops.
    String(String),
    /// Small tuple of byte strings. Supports `Append`/`Insert`.
    Tuple(Vec<Bytes>),
    /// Large byte sequence.
    Blob(Blob),
    /// Large element sequence.
    List(List),
    /// Large sorted set.
    Set(Set),
    /// Large sorted map.
    Map(Map),
}

impl Value {
    /// This value's type tag.
    pub fn vtype(&self) -> ValueType {
        match self {
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::String(_) => ValueType::String,
            Value::Tuple(_) => ValueType::Tuple,
            Value::Blob(_) => ValueType::Blob,
            Value::List(_) => ValueType::List,
            Value::Set(_) => ValueType::Set,
            Value::Map(_) => ValueType::Map,
        }
    }

    /// Encode into the FObject `data` field: primitives inline, chunkables
    /// as the 32-byte root cid.
    pub fn encode_data(&self) -> Bytes {
        let mut out = Vec::new();
        match self {
            Value::Bool(b) => out.push(u8::from(*b)),
            Value::Int(i) => out.extend_from_slice(&i.to_le_bytes()),
            Value::String(s) => out.extend_from_slice(s.as_bytes()),
            Value::Tuple(fields) => {
                put_varint(&mut out, fields.len() as u64);
                for f in fields {
                    put_bytes(&mut out, f);
                }
            }
            Value::Blob(b) => out.extend_from_slice(b.root().as_bytes()),
            Value::List(l) => out.extend_from_slice(l.root().as_bytes()),
            Value::Set(s) => out.extend_from_slice(s.root().as_bytes()),
            Value::Map(m) => out.extend_from_slice(m.root().as_bytes()),
        }
        Bytes::from(out)
    }

    /// Decode from an FObject `data` field.
    pub fn decode_data(vtype: ValueType, data: &[u8]) -> Result<Value> {
        let corrupt = || FbError::Corrupt(format!("bad {} payload", vtype.name()));
        Ok(match vtype {
            ValueType::Bool => Value::Bool(*data.first().ok_or_else(corrupt)? != 0),
            ValueType::Int => {
                Value::Int(i64::from_le_bytes(data.try_into().map_err(|_| corrupt())?))
            }
            ValueType::String => {
                Value::String(String::from_utf8(data.to_vec()).map_err(|_| corrupt())?)
            }
            ValueType::Tuple => {
                let mut pos = 0;
                let n = get_varint(data, &mut pos).ok_or_else(corrupt)?;
                let mut fields = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    fields.push(Bytes::copy_from_slice(
                        get_bytes(data, &mut pos).ok_or_else(corrupt)?,
                    ));
                }
                Value::Tuple(fields)
            }
            ValueType::Blob => Value::Blob(Blob::from_root(root_cid(data)?)),
            ValueType::List => Value::List(List::from_root(root_cid(data)?)),
            ValueType::Set => Value::Set(Set::from_root(root_cid(data)?)),
            ValueType::Map => Value::Map(Map::from_root(root_cid(data)?)),
        })
    }

    /// For chunkable values, the POS-Tree root; `None` for primitives.
    pub fn tree_root(&self) -> Option<(TreeType, Digest)> {
        match self {
            Value::Blob(b) => Some((TreeType::Blob, b.root())),
            Value::List(l) => Some((TreeType::List, l.root())),
            Value::Set(s) => Some((TreeType::Set, s.root())),
            Value::Map(m) => Some((TreeType::Map, m.root())),
            _ => None,
        }
    }

    // ---- typed accessors (paper Fig. 4: `value.Blob()` with type check) --

    /// Extract a Blob handle or fail with `TypeMismatch`.
    pub fn as_blob(&self) -> Result<Blob> {
        match self {
            Value::Blob(b) => Ok(*b),
            other => Err(mismatch(other, "Blob")),
        }
    }

    /// Extract a Map handle or fail with `TypeMismatch`.
    pub fn as_map(&self) -> Result<Map> {
        match self {
            Value::Map(m) => Ok(*m),
            other => Err(mismatch(other, "Map")),
        }
    }

    /// Extract a List handle or fail with `TypeMismatch`.
    pub fn as_list(&self) -> Result<List> {
        match self {
            Value::List(l) => Ok(*l),
            other => Err(mismatch(other, "List")),
        }
    }

    /// Extract a Set handle or fail with `TypeMismatch`.
    pub fn as_set(&self) -> Result<Set> {
        match self {
            Value::Set(s) => Ok(*s),
            other => Err(mismatch(other, "Set")),
        }
    }

    /// Extract a string or fail with `TypeMismatch`.
    pub fn as_string(&self) -> Result<&str> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(mismatch(other, "String")),
        }
    }

    /// Extract an integer or fail with `TypeMismatch`.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(mismatch(other, "Int")),
        }
    }

    /// Extract a tuple or fail with `TypeMismatch`.
    pub fn as_tuple(&self) -> Result<&[Bytes]> {
        match self {
            Value::Tuple(t) => Ok(t),
            other => Err(mismatch(other, "Tuple")),
        }
    }

    // ---- type-specific primitive operations (§3.4) ----------------------

    /// `Append` for String values.
    pub fn string_append(&mut self, suffix: &str) -> Result<()> {
        match self {
            Value::String(s) => {
                s.push_str(suffix);
                Ok(())
            }
            other => Err(mismatch(other, "String")),
        }
    }

    /// `Insert` for String values (byte offset, clamped).
    pub fn string_insert(&mut self, at: usize, text: &str) -> Result<()> {
        match self {
            Value::String(s) => {
                let at = at.min(s.len());
                s.insert_str(at, text);
                Ok(())
            }
            other => Err(mismatch(other, "String")),
        }
    }

    /// `Append` for Tuple values.
    pub fn tuple_append(&mut self, field: impl Into<Bytes>) -> Result<()> {
        match self {
            Value::Tuple(t) => {
                t.push(field.into());
                Ok(())
            }
            other => Err(mismatch(other, "Tuple")),
        }
    }

    /// `Insert` for Tuple values (index, clamped).
    pub fn tuple_insert(&mut self, at: usize, field: impl Into<Bytes>) -> Result<()> {
        match self {
            Value::Tuple(t) => {
                let at = at.min(t.len());
                t.insert(at, field.into());
                Ok(())
            }
            other => Err(mismatch(other, "Tuple")),
        }
    }

    /// `Add` for numeric values.
    pub fn int_add(&mut self, delta: i64) -> Result<()> {
        match self {
            Value::Int(i) => {
                *i = i.wrapping_add(delta);
                Ok(())
            }
            other => Err(mismatch(other, "Int")),
        }
    }

    /// `Multiply` for numeric values.
    pub fn int_multiply(&mut self, factor: i64) -> Result<()> {
        match self {
            Value::Int(i) => {
                *i = i.wrapping_mul(factor);
                Ok(())
            }
            other => Err(mismatch(other, "Int")),
        }
    }
}

fn root_cid(data: &[u8]) -> Result<Digest> {
    Digest::from_slice(data).ok_or_else(|| FbError::Corrupt("bad tree root".into()))
}

fn mismatch(found: &Value, expected: &'static str) -> FbError {
    FbError::TypeMismatch {
        found: found.vtype().name(),
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_chunk::MemStore;
    use forkbase_crypto::ChunkerConfig;

    #[test]
    fn primitive_encode_round_trip() {
        for v in [
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::String("hello".into()),
            Value::String(String::new()),
            Value::Tuple(vec![Bytes::from("a"), Bytes::from(""), Bytes::from("ccc")]),
            Value::Tuple(vec![]),
        ] {
            let data = v.encode_data();
            let back = Value::decode_data(v.vtype(), &data).expect("decode");
            assert_eq!(back, v);
        }
    }

    #[test]
    fn chunkable_encode_round_trip() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let blob = Blob::build(&store, &cfg, b"chunkable content");
        let v = Value::Blob(blob);
        let data = v.encode_data();
        assert_eq!(data.len(), 32, "meta chunk stores only the root cid");
        let back = Value::decode_data(ValueType::Blob, &data).expect("decode");
        assert_eq!(back.as_blob().expect("blob").root(), blob.root());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Value::decode_data(ValueType::Int, b"short").is_err());
        assert!(Value::decode_data(ValueType::Blob, b"not a cid").is_err());
        assert!(Value::decode_data(ValueType::Bool, b"").is_err());
        assert!(Value::decode_data(ValueType::String, &[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn type_accessors_enforce_types() {
        let v = Value::Int(7);
        assert_eq!(v.as_int().expect("int"), 7);
        let err = v.as_blob().expect_err("not a blob");
        assert_eq!(
            err,
            FbError::TypeMismatch {
                found: "Int",
                expected: "Blob"
            }
        );
    }

    #[test]
    fn primitive_ops() {
        let mut s = Value::String("hello".into());
        s.string_append(" world").expect("append");
        s.string_insert(0, ">> ").expect("insert");
        assert_eq!(s.as_string().expect("string"), ">> hello world");

        let mut i = Value::Int(10);
        i.int_add(5).expect("add");
        i.int_multiply(3).expect("multiply");
        assert_eq!(i.as_int().expect("int"), 45);

        let mut t = Value::Tuple(vec![Bytes::from("a")]);
        t.tuple_append("c").expect("append");
        t.tuple_insert(1, "b").expect("insert");
        assert_eq!(
            t.as_tuple().expect("tuple"),
            &[Bytes::from("a"), Bytes::from("b"), Bytes::from("c")]
        );
    }

    #[test]
    fn ops_on_wrong_type_fail() {
        let mut v = Value::Bool(true);
        assert!(v.string_append("x").is_err());
        assert!(v.int_add(1).is_err());
        assert!(v.tuple_append("x").is_err());
    }

    #[test]
    fn value_type_tags_round_trip() {
        for t in [
            ValueType::Bool,
            ValueType::Int,
            ValueType::String,
            ValueType::Tuple,
            ValueType::Blob,
            ValueType::List,
            ValueType::Set,
            ValueType::Map,
        ] {
            assert_eq!(ValueType::from_u8(t as u8), Some(t));
        }
        assert_eq!(ValueType::from_u8(99), None);
    }
}

//! Declarative macros replacing `#[derive(Serialize, Deserialize)]`.
//!
//! Four shapes cover every serialized type in the workspace:
//!
//! * [`impl_json_struct!`] — structs with named fields → JSON objects
//!   ([`impl_to_json_struct!`] is its encoding half, for types that decode
//!   by hand);
//! * [`impl_json_newtype!`] — single-field tuple structs → transparent
//!   (encoded as the inner value, like serde newtypes);
//! * [`impl_json_enum_units!`] — enums of unit variants → `"VariantName"`;
//! * [`impl_json_enum_structs!`] — enums of struct variants →
//!   `{"VariantName": {fields...}}` (serde's external tagging).
//!
//! Mixed enums (unit plus data variants, e.g. `SlotState`) implement the
//! traits by hand; there is exactly one in the workspace.

/// Implements [`ToJson`](crate::ToJson)/[`FromJson`](crate::FromJson) for a
/// struct with named fields, encoding it as an object in declaration order.
///
/// Invoke in the module that defines the struct so private fields resolve.
///
/// # Example
///
/// ```
/// use nimblock_ser::{impl_json_struct, from_str, to_string};
///
/// #[derive(Debug, PartialEq)]
/// struct Pair { left: u32, right: Option<String> }
/// impl_json_struct!(Pair { left, right });
///
/// let text = to_string(&Pair { left: 1, right: None });
/// assert_eq!(text, r#"{"left":1,"right":null}"#);
/// assert_eq!(from_str::<Pair>(&text).unwrap().left, 1);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        $crate::impl_to_json_struct!($ty { $($field),+ });
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                let pairs = v
                    .as_object()
                    .ok_or_else(|| $crate::JsonError::expected(
                        concat!("object for ", stringify!($ty)), v))?;
                Ok($ty {
                    $($field: $crate::field_from_json(pairs, stringify!($field))?,)+
                })
            }
        }
    };
}

/// Implements only [`ToJson`](crate::ToJson) for a struct with named
/// fields, encoding it as [`impl_json_struct!`] does. For types whose
/// decoding must validate or re-derive fields, with a hand-written
/// [`FromJson`](crate::FromJson).
///
/// # Example
///
/// ```
/// use nimblock_ser::{impl_to_json_struct, to_string};
///
/// struct Range { lo: u32, hi: u32 }
/// impl_to_json_struct!(Range { lo, hi });
///
/// assert_eq!(to_string(&Range { lo: 1, hi: 2 }), r#"{"lo":1,"hi":2}"#);
/// ```
#[macro_export]
macro_rules! impl_to_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Object(vec![
                    $((stringify!($field).to_owned(), $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

/// Implements the JSON traits for a single-field tuple struct, encoding it
/// transparently as the inner value (serde newtype semantics).
///
/// # Example
///
/// ```
/// use nimblock_ser::{impl_json_newtype, from_str, to_string};
///
/// #[derive(Debug, PartialEq)]
/// struct Id(u64);
/// impl_json_newtype!(Id);
///
/// assert_eq!(to_string(&Id(9)), "9");
/// assert_eq!(from_str::<Id>("9").unwrap(), Id(9));
/// ```
#[macro_export]
macro_rules! impl_json_newtype {
    ($ty:ident) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::ToJson::to_json(&self.0)
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok($ty($crate::FromJson::from_json(v)?))
            }
        }
    };
}

/// Implements the JSON traits for an enum whose variants are all unit
/// variants, encoding each as its name string.
///
/// # Example
///
/// ```
/// use nimblock_ser::{impl_json_enum_units, from_str, to_string};
///
/// #[derive(Debug, PartialEq)]
/// enum Mode { Fast, Careful }
/// impl_json_enum_units!(Mode { Fast, Careful });
///
/// assert_eq!(to_string(&Mode::Fast), "\"Fast\"");
/// assert_eq!(from_str::<Mode>("\"Careful\"").unwrap(), Mode::Careful);
/// assert!(from_str::<Mode>("\"Nope\"").is_err());
/// ```
#[macro_export]
macro_rules! impl_json_enum_units {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                match self {
                    $($ty::$variant => $crate::Json::Str(stringify!($variant).to_owned()),)+
                }
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok($ty::$variant),)+
                    Some(other) => Err($crate::JsonError::new(format!(
                        "unknown {} variant `{other}`", stringify!($ty)))),
                    None => Err($crate::JsonError::expected(
                        concat!(stringify!($ty), " variant string"), v)),
                }
            }
        }
    };
}

/// Implements the JSON traits for an enum whose variants all carry named
/// fields, using serde's external tagging: `{"Variant": {field: ...}}`.
///
/// # Example
///
/// ```
/// use nimblock_ser::{impl_json_enum_structs, from_str, to_string};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Circle { radius: u32 },
///     Rect { w: u32, h: u32 },
/// }
/// impl_json_enum_structs!(Shape {
///     Circle { radius },
///     Rect { w, h },
/// });
///
/// let text = to_string(&Shape::Rect { w: 2, h: 3 });
/// assert_eq!(text, r#"{"Rect":{"w":2,"h":3}}"#);
/// assert_eq!(from_str::<Shape>(&text).unwrap(), Shape::Rect { w: 2, h: 3 });
/// ```
#[macro_export]
macro_rules! impl_json_enum_structs {
    ($ty:ident { $($variant:ident { $($field:ident),+ $(,)? }),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                match self {
                    $($ty::$variant { $($field),+ } => $crate::Json::Object(vec![(
                        stringify!($variant).to_owned(),
                        $crate::Json::Object(vec![
                            $((stringify!($field).to_owned(), $crate::ToJson::to_json($field)),)+
                        ]),
                    )]),)+
                }
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                let pairs = v.as_object().ok_or_else(|| $crate::JsonError::expected(
                    concat!("externally tagged ", stringify!($ty), " object"), v))?;
                let (tag, inner) = match pairs {
                    [(tag, inner)] => (tag.as_str(), inner),
                    _ => return Err($crate::JsonError::new(concat!(
                        "expected a single-key object for ", stringify!($ty)))),
                };
                match tag {
                    $(stringify!($variant) => {
                        let fields = inner.as_object().ok_or_else(|| {
                            $crate::JsonError::expected(
                                concat!(stringify!($variant), " field object"), inner)
                        })?;
                        Ok($ty::$variant {
                            $($field: $crate::field_from_json(fields, stringify!($field))?,)+
                        })
                    })+
                    other => Err($crate::JsonError::new(format!(
                        "unknown {} variant `{other}`", stringify!($ty)))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{from_str, to_string};

    #[derive(Debug, PartialEq)]
    struct Inner(u64);
    impl_json_newtype!(Inner);

    #[derive(Debug, PartialEq)]
    struct Outer {
        id: Inner,
        tags: Vec<String>,
        note: Option<String>,
    }
    impl_json_struct!(Outer { id, tags, note });

    #[derive(Debug, PartialEq)]
    enum Event {
        Start { at: u64 },
        Move { from: u64, to: u64 },
    }
    impl_json_enum_structs!(Event {
        Start { at },
        Move { from, to },
    });

    #[test]
    fn nested_struct_roundtrips() {
        let value = Outer {
            id: Inner(7),
            tags: vec!["a".into(), "b".into()],
            note: Some("n".into()),
        };
        let text = to_string(&value);
        assert_eq!(text, r#"{"id":7,"tags":["a","b"],"note":"n"}"#);
        assert_eq!(from_str::<Outer>(&text).unwrap(), value);
    }

    #[test]
    fn struct_missing_field_errors_with_name() {
        let err = from_str::<Outer>(r#"{"id":7,"tags":[]}"#).unwrap_err();
        assert!(err.to_string().contains("missing field `note`"), "{err}");
    }

    #[test]
    fn enum_struct_variants_roundtrip() {
        for value in [Event::Start { at: 3 }, Event::Move { from: 1, to: 2 }] {
            let text = to_string(&value);
            assert_eq!(from_str::<Event>(&text).unwrap(), value);
        }
        assert!(from_str::<Event>(r#"{"Stop":{}}"#).is_err());
        assert!(from_str::<Event>(r#"{"Start":{"at":1},"Move":{"from":1,"to":2}}"#).is_err());
    }
}

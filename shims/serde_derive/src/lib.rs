//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]`
//! against the sibling `serde` shim's `Value`-based model, parsing the
//! item declaration directly from the token stream (no `syn`/`quote`
//! available offline).
//!
//! Supported item shapes — the ones this workspace uses:
//!
//! - named-field structs (with optional per-field
//!   `#[serde(serialize_with = "...", deserialize_with = "...")]`,
//!   `#[serde(skip)]`, `#[serde(rename = "...")]` for wire keys that
//!   are Rust keywords, and `#[serde(default)]` /
//!   `#[serde(default = "path")]` for fields added after older reports
//!   were written)
//! - tuple structs (newtype ids like `GenomeId(pub u64)`)
//! - unit structs
//! - enums with unit, newtype/tuple, and struct variants
//! - generic parameters get a `serde::Serialize`/`serde::Deserialize`
//!   bound appended
//!
//! Anything else inside `#[serde(...)]` — an unknown key on a named
//! field, or any key at all on a container, a variant, a tuple field or
//! a struct-variant field, where this shim implements none — is a
//! compile error rather than a silent skip: real serde would change the
//! wire format there, and a derive that ignores the request decodes
//! the wrong values without a word.
//!
//! Encoding: named structs become string-keyed maps; newtype structs are
//! transparent; tuple structs become sequences; unit enum variants
//! become their name as a string; payload variants become
//! single-entry maps `{ "Variant": payload }`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------
// Item model
// ---------------------------------------------------------------------

struct Field {
    name: String,
    attrs: FieldAttrs,
}

/// What a named field's `#[serde(...)]` attributes asked for.
#[derive(Debug, Default, PartialEq)]
struct FieldAttrs {
    serialize_with: Option<String>,
    deserialize_with: Option<String>,
    /// `#[serde(skip)]`: omitted when serializing, `Default::default()`
    /// when deserializing (whether or not the field is present).
    skip: bool,
    /// `#[serde(rename = "...")]`: the wire key to use instead of the
    /// field name (e.g. Rust keywords like `async`).
    rename: Option<String>,
    /// What an absent key decodes to (older serialized reports stay
    /// readable after a field is added).
    default: FieldDefault,
}

/// How a named field decodes when its key is absent.
#[derive(Debug, Default, PartialEq)]
enum FieldDefault {
    /// No `default`: an absent key is an error.
    #[default]
    Required,
    /// `#[serde(default)]`: `Default::default()`.
    Trait,
    /// `#[serde(default = "path")]`: the value `path()` returns.
    Path(String),
}

impl Field {
    /// The key this field uses on the wire.
    fn key(&self) -> &str {
        self.attrs.rename.as_deref().unwrap_or(&self.name)
    }
}

/// One token of a `#[serde(...)]` body, reduced to what the key parser
/// reads — `proc_macro` tokens only exist inside a macro expansion, so
/// this is also what lets the parser be unit-tested.
#[derive(Debug, Clone, PartialEq)]
enum AttrTok {
    Ident(String),
    Punct(char),
    /// A string literal, quotes stripped.
    Str(String),
    /// Anything else (groups, other literals): never valid here.
    Other(String),
}

fn attr_tokens(stream: TokenStream) -> Vec<AttrTok> {
    stream
        .into_iter()
        .map(|t| match t {
            TokenTree::Ident(id) => AttrTok::Ident(id.to_string()),
            TokenTree::Punct(p) => AttrTok::Punct(p.as_char()),
            TokenTree::Literal(l) => {
                let text = l.to_string();
                match text.strip_prefix('"').and_then(|t| t.strip_suffix('"')) {
                    Some(inner) => AttrTok::Str(inner.to_string()),
                    None => AttrTok::Other(text),
                }
            }
            other => AttrTok::Other(other.to_string()),
        })
        .collect()
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Shape {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    /// Raw generic parameter list (without angle brackets), e.g. `T: Bound`.
    generic_params: Vec<String>,
    /// Bare generic argument names for the `for Name<...>` position.
    generic_args: Vec<String>,
    shape: Shape,
}

impl Item {
    /// `impl<...bounded params...>` fragment, bounding every type
    /// parameter by `extra_bound`.
    fn impl_generics(&self, extra_bound: &str) -> String {
        if self.generic_params.is_empty() {
            return String::new();
        }
        let params: Vec<String> = self
            .generic_params
            .iter()
            .map(|p| {
                if p.starts_with('\'') {
                    p.clone()
                } else if p.contains(':') {
                    format!("{p} + {extra_bound}")
                } else {
                    format!("{p}: {extra_bound}")
                }
            })
            .collect();
        format!("<{}>", params.join(", "))
    }

    /// `Name<...args...>` fragment.
    fn ty(&self) -> String {
        if self.generic_args.is_empty() {
            self.name.clone()
        } else {
            format!("{}<{}>", self.name, self.generic_args.join(", "))
        }
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Cursor {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Consumes one `#[...]` attribute if present, returning its content
    /// when it is a `serde(...)` attribute.
    fn eat_attribute(&mut self) -> Option<Option<TokenStream>> {
        if let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() == '#' {
                self.next(); // '#'
                let group = match self.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g,
                    other => panic!("malformed attribute: expected [...], got {other:?}"),
                };
                let mut inner = group.stream().into_iter();
                let is_serde = matches!(
                    inner.next(),
                    Some(TokenTree::Ident(id)) if id.to_string() == "serde"
                );
                if is_serde {
                    if let Some(TokenTree::Group(args)) = inner.next() {
                        return Some(Some(args.stream()));
                    }
                }
                return Some(None);
            }
        }
        None
    }

    /// Consumes attributes, collecting serde attribute contents.
    fn eat_attributes(&mut self) -> Vec<Vec<AttrTok>> {
        let mut serde_attrs = Vec::new();
        while let Some(attr) = self.eat_attribute() {
            if let Some(content) = attr {
                serde_attrs.push(attr_tokens(content));
            }
        }
        serde_attrs
    }

    /// Consumes attributes at a position where this shim implements no
    /// serde key at all (`site` names it for the error).
    fn eat_attributes_rejecting_serde(&mut self, site: &str) {
        if let Err(e) = reject_serde_attrs(&self.eat_attributes(), site) {
            panic!("{e}");
        }
    }

    /// Consumes a visibility qualifier (`pub`, `pub(crate)`, ...).
    fn eat_visibility(&mut self) {
        if let Some(TokenTree::Ident(id)) = self.peek() {
            if id.to_string() == "pub" {
                self.next();
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.next();
                    }
                }
            }
        }
    }

    /// Parses `<...>` generics into raw params and bare argument names.
    fn eat_generics(&mut self) -> (Vec<String>, Vec<String>) {
        let mut params = Vec::new();
        let mut args = Vec::new();
        let Some(TokenTree::Punct(p)) = self.peek() else {
            return (params, args);
        };
        if p.as_char() != '<' {
            return (params, args);
        }
        self.next(); // '<'
        let mut depth = 1usize;
        let mut current = String::new();
        while depth > 0 {
            let t = self.next().expect("unterminated generics");
            match &t {
                TokenTree::Punct(p) if p.as_char() == '<' => {
                    depth += 1;
                    current.push('<');
                }
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    current.push('>');
                }
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => {
                    push_param(&mut params, &mut args, &mut current);
                }
                other => {
                    if !current.is_empty() && !current.ends_with(['<', '\'']) {
                        current.push(' ');
                    }
                    current.push_str(&other.to_string());
                }
            }
        }
        push_param(&mut params, &mut args, &mut current);
        (params, args)
    }
}

fn push_param(params: &mut Vec<String>, args: &mut Vec<String>, current: &mut String) {
    let p = current.trim().to_string();
    if p.is_empty() {
        return;
    }
    let arg = p
        .split([':', ' '])
        .next()
        .expect("split yields at least one piece")
        .to_string();
    args.push(arg);
    params.push(p);
    current.clear();
}

/// Parses the `#[serde(...)]` bodies of one named field: a
/// comma-separated list of `key` and `key = "string"` entries.
///
/// # Errors
///
/// A message naming the offending key when it is one this shim does not
/// implement, or when an entry is malformed.
fn parse_field_attrs(attrs: &[Vec<AttrTok>]) -> Result<FieldAttrs, String> {
    let mut out = FieldAttrs::default();
    for attr in attrs {
        for entry in attr.split(|t| *t == AttrTok::Punct(',')) {
            let (key, value) = match entry {
                [] => continue, // trailing comma
                [AttrTok::Ident(key)] => (key.as_str(), None),
                [AttrTok::Ident(key), AttrTok::Punct('='), AttrTok::Str(value)] => {
                    (key.as_str(), Some(value.clone()))
                }
                other => return Err(format!("malformed serde attribute entry: {other:?}")),
            };
            match (key, value) {
                ("skip", None) => out.skip = true,
                ("default", None) => out.default = FieldDefault::Trait,
                ("default", Some(path)) => out.default = FieldDefault::Path(path),
                ("serialize_with", Some(path)) => out.serialize_with = Some(path),
                ("deserialize_with", Some(path)) => out.deserialize_with = Some(path),
                ("rename", Some(name)) => out.rename = Some(name),
                (key, _) => {
                    return Err(format!(
                        "serde attribute `{key}` is not implemented by the vendored \
                         serde_derive shim (fields support skip, default, default = \
                         \"path\", rename = \"..\", serialize_with = \"..\", \
                         deserialize_with = \"..\")"
                    ))
                }
            }
        }
    }
    Ok(out)
}

/// Rejects every serde attribute at a position where the shim
/// implements none (containers, variants, tuple fields, struct-variant
/// fields).
///
/// # Errors
///
/// A message naming `site` when any `#[serde(...)]` is present.
fn reject_serde_attrs(attrs: &[Vec<AttrTok>], site: &str) -> Result<(), String> {
    match attrs.first() {
        None => Ok(()),
        Some(tokens) => Err(format!(
            "#[serde(...)] on {site} is not implemented by the vendored serde_derive \
             shim (got {tokens:?}); it would be silently ignored"
        )),
    }
}

/// Parses named fields from the `{ ... }` group of a struct.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut cur = Cursor::new(stream);
    let mut fields = Vec::new();
    while !cur.at_end() {
        let serde_attrs = cur.eat_attributes();
        cur.eat_visibility();
        let name = match cur.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("expected field name, got {other:?}"),
        };
        match cur.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field `{name}`, got {other:?}"),
        }
        skip_type(&mut cur);
        let attrs =
            parse_field_attrs(&serde_attrs).unwrap_or_else(|e| panic!("field `{name}`: {e}"));
        fields.push(Field { name, attrs });
    }
    fields
}

/// Skips a type expression up to (and including) the next top-level comma.
fn skip_type(cur: &mut Cursor) {
    let mut angle_depth = 0usize;
    while let Some(t) = cur.peek() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1);
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                cur.next();
                return;
            }
            _ => {}
        }
        cur.next();
    }
}

/// Counts the fields of a tuple struct / tuple variant `(...)` group.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut cur = Cursor::new(stream);
    let mut count = 0;
    while !cur.at_end() {
        cur.eat_attributes_rejecting_serde("a tuple field");
        cur.eat_visibility();
        if cur.at_end() {
            break;
        }
        count += 1;
        skip_type(&mut cur);
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut cur = Cursor::new(stream);
    let mut variants = Vec::new();
    while !cur.at_end() {
        cur.eat_attributes_rejecting_serde("an enum variant");
        let name = match cur.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("expected variant name, got {other:?}"),
        };
        let kind = match cur.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                cur.next();
                VariantKind::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                cur.next();
                if fields.iter().any(|f| f.attrs != FieldAttrs::default()) {
                    panic!("#[serde(...)] on a field of struct variant `{name}` is not implemented by the vendored serde_derive shim; it would be silently ignored");
                }
                VariantKind::Struct(fields.into_iter().map(|f| f.name).collect())
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional discriminant (`= expr`) and the trailing comma.
        while let Some(t) = cur.peek() {
            if let TokenTree::Punct(p) = t {
                if p.as_char() == ',' {
                    cur.next();
                    break;
                }
            }
            cur.next();
        }
        variants.push(Variant { name, kind });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut cur = Cursor::new(input);
    cur.eat_attributes_rejecting_serde("a struct or enum");
    cur.eat_visibility();
    let keyword = match cur.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected `struct` or `enum`, got {other:?}"),
    };
    let name = match cur.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected item name, got {other:?}"),
    };
    let (generic_params, generic_args) = cur.eat_generics();

    let shape = match keyword.as_str() {
        "struct" => match cur.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
            other => panic!("unsupported struct body for `{name}`: {other:?}"),
        },
        "enum" => match cur.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("unsupported enum body for `{name}`: {other:?}"),
        },
        other => panic!("derive target must be struct or enum, got `{other}`"),
    };

    Item {
        name,
        generic_params,
        generic_args,
        shape,
    }
}

// ---------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct(fields) => {
            let mut pushes = String::new();
            for f in fields {
                if f.attrs.skip {
                    continue;
                }
                let expr = match &f.attrs.serialize_with {
                    Some(path) => format!("{path}(&self.{})", f.name),
                    None => format!("serde::Serialize::to_value(&self.{})", f.name),
                };
                pushes.push_str(&format!(
                    "__m.push((\"{n}\".to_string(), {expr}));\n",
                    n = f.key()
                ));
            }
            format!(
                "let mut __m: Vec<(String, serde::Value)> = Vec::new();\n\
                 {pushes}serde::Value::Map(__m)"
            )
        }
        Shape::TupleStruct(1) => "serde::Serialize::to_value(&self.0)".to_string(),
        Shape::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("serde::Value::Seq(vec![{}])", elems.join(", "))
        }
        Shape::UnitStruct => "serde::Value::Null".to_string(),
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        arms.push_str(&format!(
                            "{name}::{vn} => serde::Value::Str(\"{vn}\".to_string()),\n"
                        ));
                    }
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__x{i}")).collect();
                        let payload = if *n == 1 {
                            "serde::Serialize::to_value(__x0)".to_string()
                        } else {
                            let elems: Vec<String> = binds
                                .iter()
                                .map(|b| format!("serde::Serialize::to_value({b})"))
                                .collect();
                            format!("serde::Value::Seq(vec![{}])", elems.join(", "))
                        };
                        arms.push_str(&format!(
                            "{name}::{vn}({binds}) => serde::Value::Map(vec![(\"{vn}\".to_string(), {payload})]),\n",
                            binds = binds.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let entries: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!("(\"{f}\".to_string(), serde::Serialize::to_value({f}))")
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {fields} }} => serde::Value::Map(vec![(\"{vn}\".to_string(), serde::Value::Map(vec![{entries}]))]),\n",
                            fields = fields.join(", "),
                            entries = entries.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl{ig} serde::Serialize for {ty} {{\n\
             fn to_value(&self) -> serde::Value {{\n{body}\n}}\n\
         }}",
        ig = item.impl_generics("serde::Serialize"),
        ty = item.ty()
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct(fields) => {
            let mut inits = String::new();
            for f in fields {
                let expr = if f.attrs.skip {
                    "Default::default()".to_string()
                } else {
                    let from = |value: &str| match &f.attrs.deserialize_with {
                        Some(path) => format!("{path}({value})?"),
                        None => format!("serde::Deserialize::from_value({value})?"),
                    };
                    let absent = match &f.attrs.default {
                        FieldDefault::Required => None,
                        FieldDefault::Trait => Some("Default::default()".to_string()),
                        FieldDefault::Path(path) => Some(format!("{path}()")),
                    };
                    match absent {
                        Some(absent) => format!(
                            "match serde::field(__m, \"{n}\") {{\n\
                                 Ok(__f) => {e},\n\
                                 Err(_) => {absent},\n\
                             }}",
                            n = f.key(),
                            e = from("__f")
                        ),
                        None => from(&format!("serde::field(__m, \"{n}\")?", n = f.key())),
                    }
                };
                inits.push_str(&format!("{n}: {expr},\n", n = f.name));
            }
            format!(
                "let __m = __v.as_map().ok_or_else(|| serde::Error::custom(\
                 \"expected map for struct {name}\"))?;\n\
                 Ok({name} {{\n{inits}}})"
            )
        }
        Shape::TupleStruct(1) => {
            format!("Ok({name}(serde::Deserialize::from_value(__v)?))")
        }
        Shape::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("serde::Deserialize::from_value(&__s[{i}])?"))
                .collect();
            format!(
                "let __s = __v.as_seq().ok_or_else(|| serde::Error::custom(\
                 \"expected sequence for struct {name}\"))?;\n\
                 if __s.len() != {n} {{\n\
                     return Err(serde::Error::custom(\"wrong arity for struct {name}\"));\n\
                 }}\n\
                 Ok({name}({elems}))",
                elems = elems.join(", ")
            )
        }
        Shape::UnitStruct => format!("Ok({name})"),
        Shape::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut payload_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        unit_arms.push_str(&format!("\"{vn}\" => Ok({name}::{vn}),\n"));
                    }
                    VariantKind::Tuple(1) => {
                        payload_arms.push_str(&format!(
                            "\"{vn}\" => Ok({name}::{vn}(serde::Deserialize::from_value(__inner)?)),\n"
                        ));
                    }
                    VariantKind::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|i| format!("serde::Deserialize::from_value(&__s[{i}])?"))
                            .collect();
                        payload_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                                 let __s = __inner.as_seq().ok_or_else(|| serde::Error::custom(\
                                 \"expected sequence payload for {name}::{vn}\"))?;\n\
                                 if __s.len() != {n} {{\n\
                                     return Err(serde::Error::custom(\"wrong arity for {name}::{vn}\"));\n\
                                 }}\n\
                                 Ok({name}::{vn}({elems}))\n\
                             }}\n",
                            elems = elems.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: serde::Deserialize::from_value(serde::field(__mm, \"{f}\")?)?"
                                )
                            })
                            .collect();
                        payload_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                                 let __mm = __inner.as_map().ok_or_else(|| serde::Error::custom(\
                                 \"expected map payload for {name}::{vn}\"))?;\n\
                                 Ok({name}::{vn} {{ {inits} }})\n\
                             }}\n",
                            inits = inits.join(", ")
                        ));
                    }
                }
            }
            format!(
                "match __v {{\n\
                     serde::Value::Str(__s) => match __s.as_str() {{\n\
                         {unit_arms}\
                         __other => Err(serde::Error::custom(format!(\
                             \"unknown variant `{{__other}}` for enum {name}\"))),\n\
                     }},\n\
                     serde::Value::Map(__m) if __m.len() == 1 => {{\n\
                         let (__tag, __inner) = &__m[0];\n\
                         match __tag.as_str() {{\n\
                             {payload_arms}\
                             __other => Err(serde::Error::custom(format!(\
                                 \"unknown variant `{{__other}}` for enum {name}\"))),\n\
                         }}\n\
                     }}\n\
                     __other => Err(serde::Error::custom(format!(\
                         \"expected enum {name}, got {{}}\", __other.kind()))),\n\
                 }}"
            )
        }
    };
    format!(
        "impl{ig} serde::Deserialize for {ty} {{\n\
             fn from_value(__v: &serde::Value) -> Result<Self, serde::Error> {{\n{body}\n}}\n\
         }}",
        ig = item.impl_generics("serde::Deserialize"),
        ty = item.ty()
    )
}

/// Derives `serde::Serialize` (shim) for a struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl must parse")
}

/// Derives `serde::Deserialize` (shim) for a struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl must parse")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(s: &str) -> AttrTok {
        AttrTok::Ident(s.to_string())
    }

    fn assign(key: &str, value: &str) -> Vec<AttrTok> {
        vec![ident(key), AttrTok::Punct('='), AttrTok::Str(value.into())]
    }

    #[test]
    fn default_with_a_path_is_kept_apart_from_bare_default() {
        let bare = parse_field_attrs(&[vec![ident("default")]]).unwrap();
        assert_eq!(bare.default, FieldDefault::Trait);
        let path = parse_field_attrs(&[assign("default", "default_batch_lanes")]).unwrap();
        assert_eq!(
            path.default,
            FieldDefault::Path("default_batch_lanes".into())
        );
        assert_eq!(
            parse_field_attrs(&[]).unwrap().default,
            FieldDefault::Required
        );
    }

    #[test]
    fn every_implemented_field_key_parses_in_one_list() {
        let mut list = assign("rename", "async");
        list.push(AttrTok::Punct(','));
        list.push(ident("default"));
        list.push(AttrTok::Punct(','));
        list.extend(assign("serialize_with", "a::b"));
        list.push(AttrTok::Punct(','));
        list.extend(assign("deserialize_with", "c::d"));
        list.push(AttrTok::Punct(','));
        let attrs = parse_field_attrs(&[list, vec![ident("skip")]]).unwrap();
        assert_eq!(
            attrs,
            FieldAttrs {
                serialize_with: Some("a::b".into()),
                deserialize_with: Some("c::d".into()),
                skip: true,
                rename: Some("async".into()),
                default: FieldDefault::Trait,
            }
        );
    }

    #[test]
    fn unknown_field_key_is_rejected_by_name() {
        let err = parse_field_attrs(&[vec![ident("flatten")]]).unwrap_err();
        assert!(err.contains("`flatten`"), "{err}");
        let err = parse_field_attrs(&[assign("alias", "old_name")]).unwrap_err();
        assert!(err.contains("`alias`"), "{err}");
        // A known key in the wrong form is just as unimplemented.
        assert!(parse_field_attrs(&[assign("skip", "yes")]).is_err());
        assert!(parse_field_attrs(&[vec![ident("rename")]]).is_err());
        // So is anything that is not `key` or `key = "string"`.
        let garbled = vec![ident("default"), AttrTok::Punct('='), ident("path")];
        assert!(parse_field_attrs(&[garbled]).is_err());
    }

    #[test]
    fn any_key_is_rejected_where_no_key_is_implemented() {
        assert!(reject_serde_attrs(&[], "a struct or enum").is_ok());
        let err = reject_serde_attrs(&[assign("rename_all", "snake_case")], "a struct or enum")
            .unwrap_err();
        assert!(err.contains("a struct or enum"), "{err}");
        assert!(err.contains("rename_all"), "{err}");
        assert!(reject_serde_attrs(&[vec![ident("default")]], "an enum variant").is_err());
    }
}

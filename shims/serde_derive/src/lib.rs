//! `#[derive(Serialize)]` for the vendored `serde` shim: writes a
//! struct as a JSON object through `partialtor_obs::json::ToJson`.
//!
//! The derive accepts a non-generic struct with named fields. Its keys
//! are the field names in declaration order, and each value is that
//! field's own `ToJson`. Two of serde's field attributes keep their
//! meaning: `#[serde(skip)]` leaves a field out, and
//! `#[serde(flatten)]` splices a field's object into its parent's. An
//! enum, a tuple or unit struct, a generic struct or any other serde
//! attribute is a compile error. The generated impl names
//! `::partialtor_obs`, so a crate that derives must depend on it.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let code =
        expand(input).unwrap_or_else(|message| format!("::core::compile_error!({message:?});"));
    code.parse().expect("generated code is valid Rust")
}

/// What a field contributes to its struct's object.
#[derive(Clone, Copy)]
enum Role {
    /// One `"name": value` pair.
    Pair,
    /// Nothing (`#[serde(skip)]`).
    Skip,
    /// Every pair of its own object (`#[serde(flatten)]`).
    Flatten,
}

fn expand(input: TokenStream) -> Result<String, String> {
    const SHAPE: &str = "#[derive(Serialize)] supports non-generic structs with named fields only";
    let mut tokens = input.into_iter();
    // Outer attributes and the visibility are skipped whole: an
    // attribute's brackets and a `pub(…)` are single token trees.
    let name = loop {
        match tokens.next() {
            Some(TokenTree::Ident(ident)) if ident.to_string() == "struct" => match tokens.next() {
                Some(TokenTree::Ident(name)) => break name.to_string(),
                _ => return Err(SHAPE.into()),
            },
            Some(TokenTree::Ident(ident))
                if matches!(ident.to_string().as_str(), "enum" | "union") =>
            {
                return Err(SHAPE.into())
            }
            Some(_) => {}
            None => return Err(SHAPE.into()),
        }
    };
    let body = match tokens.next() {
        Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Brace => group.stream(),
        _ => return Err(SHAPE.into()),
    };
    let (mut pushes, mut capacity) = (String::new(), 0);
    for (field, role) in fields(body)? {
        let value = format!("::partialtor_obs::json::ToJson::to_json(&self.{field})");
        let key = field.trim_start_matches("r#");
        match role {
            Role::Pair => {
                pushes.push_str(&format!("fields.push(({key:?}.to_string(), {value}));\n"));
                capacity += 1;
            }
            Role::Flatten => pushes.push_str(&format!("fields.extend({value}.into_fields());\n")),
            Role::Skip => {}
        }
    }
    Ok(format!(
        "impl ::partialtor_obs::json::ToJson for {name} {{
            fn to_json(&self) -> ::partialtor_obs::json::Json {{
                let mut fields = ::std::vec::Vec::with_capacity({capacity});
                {pushes}
                ::partialtor_obs::json::Json::Obj(fields)
            }}
        }}"
    ))
}

/// The named fields of a struct body, with their roles.
fn fields(body: TokenStream) -> Result<Vec<(String, Role)>, String> {
    let mut fields = Vec::new();
    let mut role = Role::Pair;
    let mut tokens = body.into_iter();
    while let Some(token) = tokens.next() {
        match token {
            // `#[…]`: doc comments and other attributes pass through.
            TokenTree::Punct(punct) if punct.as_char() == '#' => {
                if let Some(TokenTree::Group(attribute)) = tokens.next() {
                    if let Some(serde) = serde_role(attribute.stream())? {
                        role = serde;
                    }
                }
            }
            TokenTree::Ident(ident) if ident.to_string() == "pub" => {}
            TokenTree::Ident(name) => {
                fields.push((name.to_string(), role));
                role = Role::Pair;
                skip_type(&mut tokens);
            }
            // `(crate)` of a `pub(crate)`.
            _ => {}
        }
    }
    Ok(fields)
}

/// The role a `#[serde(…)]` attribute gives its field; `None` for any
/// other attribute.
fn serde_role(attribute: TokenStream) -> Result<Option<Role>, String> {
    let mut tokens = attribute.into_iter();
    match tokens.next() {
        Some(TokenTree::Ident(ident)) if ident.to_string() == "serde" => {}
        _ => return Ok(None),
    }
    let argument = match tokens.next() {
        Some(TokenTree::Group(group)) => group.stream().to_string(),
        _ => String::new(),
    };
    match argument.as_str() {
        "skip" => Ok(Some(Role::Skip)),
        "flatten" => Ok(Some(Role::Flatten)),
        _ => Err(format!(
            "the serde shim supports #[serde(skip)] and #[serde(flatten)], not #[serde({argument})]"
        )),
    }
}

/// Consumes `: Type` up to the comma that ends the field. Commas inside
/// `<…>` belong to the type; the `>` of a `->` closes nothing.
fn skip_type(tokens: &mut impl Iterator<Item = TokenTree>) {
    let (mut depth, mut after_dash) = (0usize, false);
    for token in tokens {
        let TokenTree::Punct(punct) = token else {
            after_dash = false;
            continue;
        };
        match punct.as_char() {
            ',' if depth == 0 => return,
            '<' => depth += 1,
            '>' if !after_dash => depth = depth.saturating_sub(1),
            _ => {}
        }
        after_dash = punct.as_char() == '-';
    }
}

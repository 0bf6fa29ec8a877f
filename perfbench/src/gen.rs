//! Seeded input generators. The program under test only ever receives
//! what these produce (SCUFL text, input data-set text, numeric
//! streams), directly or wrapped in daemon protocol lines. The same
//! seed gives the same inputs.

use moteur_gridsim::Rng;
use std::fmt::Write as _;

/// Nominal size of one registration image (7.8 MB, as in the paper).
pub const IMAGE_BYTES: u64 = 7_864_320;

/// The five services of the Bronze-Standard critical path.
const CHAIN: [(&str, &str); 5] = [
    ("crestLines", "CrestLines.pl"),
    ("crestMatch", "cmatch"),
    ("PFMatchICP", "PFMatchICP"),
    ("PFRegister", "PFRegister"),
    ("MultiTransfoTest", "MultiTransfoTest"),
];

/// The Bronze-Standard chain (crestLines → … → MultiTransfoTest) as
/// SCUFL, with compute times drawn from `rng` (20–120 s per service).
pub fn chain_scufl(rng: &mut Rng) -> String {
    let mut xml = String::from(
        "<scufl name=\"bronze-chain\">\n  <source name=\"images\" bytes=\"7864320\"/>\n",
    );
    for (name, exe) in CHAIN {
        let compute = 20 + rng.index(101);
        let _ = write!(
            xml,
            r#"  <processor name="{name}" compute="{compute}">
    <executable name="{exe}">
      <access type="URL"><path value="http://colors.unice.fr"/></access>
      <value value="{exe}"/>
      <input name="in" option="-i"><access type="GFN"/></input>
      <output name="out" option="-o"><access type="GFN"/></output>
    </executable>
    <outputsize slot="out" bytes="2048"/>
  </processor>
"#
        );
    }
    xml.push_str("  <sink name=\"accuracy\"/>\n");
    let mut from = "images:out".to_string();
    for (name, _) in CHAIN {
        let _ = writeln!(xml, r#"  <link from="{from}" to="{name}:in"/>"#);
        from = format!("{name}:out");
    }
    let _ = writeln!(xml, r#"  <link from="{from}" to="accuracy:in"/>"#);
    xml.push_str("</scufl>\n");
    xml
}

fn file_items(out: &mut String, prefix: &str, n: usize) {
    for j in 0..n {
        let _ = write!(
            out,
            r#"<item type="file" gfn="gfn://{prefix}/{j:06}.hdr" bytes="{IMAGE_BYTES}"/>"#
        );
    }
}

/// Input data-set text for the chain: `n` images named under `prefix`.
pub fn chain_inputs(prefix: &str, n: usize) -> String {
    let mut xml = String::from(r#"<inputdata><input name="images">"#);
    file_items(&mut xml, prefix, n);
    xml.push_str("</input></inputdata>");
    xml
}

/// The full Fig. 9 Bronze-Standard workflow (six registration services
/// per image pair plus the MultiTransfoTest synchronization barrier),
/// with each compute time scaled by a seeded factor in [0.8, 1.2].
pub fn fig9_scufl(rng: &mut Rng) -> String {
    let mut c = |base: f64| (base * rng.uniform_range(0.8, 1.2)).round() as u64;
    let im = r#"<input name="floating_image" option="-im1"><access type="GFN"/></input><input name="reference_image" option="-im2"><access type="GFN"/></input>"#;
    let tout = r#"<output name="transfo" option="-o"><access type="GFN"/></output>"#;
    let exe = |name: &str, value: &str, body: &str| {
        format!(
            r#"<executable name="{name}"><access type="URL"><path value="http://colors.unice.fr"/></access><value value="{value}"/>{body}</executable>"#
        )
    };
    let crest = exe(
        "CrestLines.pl",
        "CrestLines.pl",
        &format!(
            r#"{im}<input name="scale" option="-s"/><output name="crest_reference" option="-c1"><access type="GFN"/></output><output name="crest_floating" option="-c2"><access type="GFN"/></output>"#
        ),
    );
    let cmatch = exe(
        "CrestMatch",
        "cmatch",
        &format!(
            r#"<input name="crest_reference" option="-c1"><access type="GFN"/></input><input name="crest_floating" option="-c2"><access type="GFN"/></input>{tout}"#
        ),
    );
    let icp = exe(
        "PFMatchICP",
        "PFMatchICP",
        &format!(
            r#"<input name="init" option="-init"><access type="GFN"/></input>{im}<output name="raw_transfo" option="-o"><access type="GFN"/></output>"#
        ),
    );
    let reg = exe(
        "PFRegister",
        "PFRegister",
        &format!(r#"<input name="raw" option="-i"><access type="GFN"/></input>{tout}"#),
    );
    let init_im_tout =
        format!(r#"<input name="init" option="-init"><access type="GFN"/></input>{im}{tout}"#);
    let yas = exe("Yasmina", "yasmina", &init_im_tout);
    let bal = exe("Baladin", "baladin", &init_im_tout);
    let mtt = exe(
        "MultiTransfoTest",
        "MultiTransfoTest",
        r#"<input name="method" option="-m"><access type="GFN"/></input><input name="transfo_cm" option="-t1"><access type="GFN"/></input><input name="transfo_pf" option="-t2"><access type="GFN"/></input><input name="transfo_y" option="-t3"><access type="GFN"/></input><input name="transfo_b" option="-t4"><access type="GFN"/></input><output name="accuracy_translation" option="-at"><access type="GFN"/></output><output name="accuracy_rotation" option="-ar"><access type="GFN"/></output>"#,
    );
    format!(
        r#"<scufl name="bronze-standard">
  <source name="referenceImage" bytes="7864320"/>
  <source name="floatingImage" bytes="7864320"/>
  <source name="methodToTest" bytes="64"/>
  <processor name="crestLines" compute="{c0}">{crest}<param slot="scale" value="2"/><outputsize slot="crest_reference" bytes="400000"/><outputsize slot="crest_floating" bytes="400000"/></processor>
  <processor name="crestMatch" compute="{c1}">{cmatch}<outputsize slot="transfo" bytes="2048"/></processor>
  <processor name="PFMatchICP" compute="{c2}">{icp}<outputsize slot="raw_transfo" bytes="2048"/></processor>
  <processor name="PFRegister" compute="{c3}">{reg}<outputsize slot="transfo" bytes="2048"/></processor>
  <processor name="Yasmina" compute="{c4}">{yas}<outputsize slot="transfo" bytes="2048"/></processor>
  <processor name="Baladin" compute="{c5}">{bal}<outputsize slot="transfo" bytes="2048"/></processor>
  <processor name="MultiTransfoTest" compute="{c6}" sync="true">{mtt}<outputsize slot="accuracy_translation" bytes="256"/><outputsize slot="accuracy_rotation" bytes="256"/></processor>
  <sink name="accuracy_translation"/>
  <sink name="accuracy_rotation"/>
  <link from="referenceImage:out" to="crestLines:reference_image"/>
  <link from="floatingImage:out" to="crestLines:floating_image"/>
  <link from="crestLines:crest_reference" to="crestMatch:crest_reference"/>
  <link from="crestLines:crest_floating" to="crestMatch:crest_floating"/>
  <link from="crestMatch:transfo" to="PFMatchICP:init"/>
  <link from="crestMatch:transfo" to="Yasmina:init"/>
  <link from="crestMatch:transfo" to="Baladin:init"/>
  <link from="referenceImage:out" to="PFMatchICP:reference_image"/>
  <link from="floatingImage:out" to="PFMatchICP:floating_image"/>
  <link from="referenceImage:out" to="Yasmina:reference_image"/>
  <link from="floatingImage:out" to="Yasmina:floating_image"/>
  <link from="referenceImage:out" to="Baladin:reference_image"/>
  <link from="floatingImage:out" to="Baladin:floating_image"/>
  <link from="PFMatchICP:raw_transfo" to="PFRegister:raw"/>
  <link from="methodToTest:out" to="MultiTransfoTest:method"/>
  <link from="crestMatch:transfo" to="MultiTransfoTest:transfo_cm"/>
  <link from="PFRegister:transfo" to="MultiTransfoTest:transfo_pf"/>
  <link from="Yasmina:transfo" to="MultiTransfoTest:transfo_y"/>
  <link from="Baladin:transfo" to="MultiTransfoTest:transfo_b"/>
  <link from="MultiTransfoTest:accuracy_translation" to="accuracy_translation:in"/>
  <link from="MultiTransfoTest:accuracy_rotation" to="accuracy_rotation:in"/>
</scufl>
"#,
        c0 = c(90.0),
        c1 = c(35.0),
        c2 = c(60.0),
        c3 = c(25.0),
        c4 = c(220.0),
        c5 = c(200.0),
        c6 = c(120.0),
    )
}

/// Input data-set text for Fig. 9: `n` image pairs and one method file.
pub fn fig9_inputs(prefix: &str, n: usize) -> String {
    let mut xml = String::from(r#"<inputdata><input name="referenceImage">"#);
    file_items(&mut xml, &format!("{prefix}/ref"), n);
    xml.push_str(r#"</input><input name="floatingImage">"#);
    file_items(&mut xml, &format!("{prefix}/float"), n);
    let _ = write!(
        xml,
        r#"</input><input name="methodToTest"><item type="file" gfn="gfn://{prefix}/method.txt" bytes="64"/></input></inputdata>"#
    );
    xml
}

/// A numeric stream of `n` items starting at a seeded offset.
pub fn stream_values(rng: &mut Rng, n: usize) -> (f64, Vec<f64>) {
    let base = rng.index(1 << 20) as f64;
    (base, (0..n).map(|i| base + i as f64).collect())
}

//! Bit pins of the DFT front end: `dft` and `idft` of seeded inputs at
//! radix-2 and Bluestein lengths, one image-length input holding zeros of
//! both signs, `dft_features` of seeded MNIST-like and Fashion-like images
//! (one of them all black) at several widths, and the train and test
//! features of two small image tasks built by `build_task`.
//!
//! Each test hashes the exact bits of its outputs, so a change to the
//! transforms that reorders any arithmetic, or flips the sign of a zero,
//! fails here; every training output downstream of the features would move
//! with it. The constants were recorded by printing the hashes from these
//! test bodies; to re-record after a deliberate change, print them again.

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::core::{build_task, TaskKind, TaskSpec};
use photon_zo::data::{dft, dft_features, idft, Dataset, Image, SyntheticFashion, SyntheticMnist};
use photon_zo::linalg::random::normal_cvector;
use photon_zo::linalg::{CVector, C64};

/// FNV-1a over `bytes`.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the bit patterns of the complex entries of `vectors`.
fn field_hash<'a>(vectors: impl IntoIterator<Item = &'a CVector>) -> u64 {
    fnv(vectors
        .into_iter()
        .flat_map(|v| v.iter().flat_map(|z| [z.re, z.im]))
        .flat_map(|x| x.to_bits().to_le_bytes()))
}

/// The hash of a dataset's feature bits and its labels.
fn dataset_hash(ds: &Dataset) -> [u64; 2] {
    let labels = fnv(ds.labels().iter().flat_map(|&l| (l as u64).to_le_bytes()));
    [field_hash(ds.inputs()), labels]
}

#[test]
fn dft_and_idft_are_bit_pinned() {
    const PINS: [(usize, u64, u64); 11] = [
        (1, 0x7e8b_5ccf_f7a9_19da, 0x7e8b_5ccf_f7a9_19da),
        (2, 0x93ac_b2c0_547a_7b92, 0xc60c_99fe_2e86_6452),
        (3, 0xcb3d_2981_ab81_89a6, 0xcacb_da60_ebaa_2404),
        (7, 0x722a_f7fc_b8f3_96ba, 0xe4bc_cd81_c076_c1e1),
        (16, 0x4919_5daf_561f_f9e5, 0x0a4d_2815_8ccd_9c9d),
        (28, 0xf45c_7ea8_ed5f_8aa5, 0xe78c_0ab9_a41a_889e),
        (100, 0x3320_6156_c657_429b, 0xd663_8e8c_5ec9_82a6),
        (256, 0x5007_1c4f_af0f_9e5a, 0x88a6_e465_0d79_bb2e),
        (784, 0x9775_5061_f098_7e7e, 0xa4ae_1db5_6f76_5d33),
        (1000, 0x5a5a_b165_d95c_f674, 0xbb3d_0f70_2d88_ae10),
        (1024, 0xba57_43dc_b18b_1971, 0x6113_75e4_a61b_ab31),
    ];
    let got: Vec<(usize, u64, u64)> = PINS
        .iter()
        .map(|&(n, _, _)| {
            let mut rng = StdRng::seed_from_u64(500 + n as u64);
            let x = normal_cvector(n, &mut rng);
            (n, field_hash([&dft(&x)]), field_hash([&idft(&x)]))
        })
        .collect();
    assert_eq!(got, PINS, "got {got:#x?}");
}

/// An image-length input like a clamped image's: exact zeros of both signs
/// in both parts, among nonzero entries; then inputs of negative zeros
/// alone, whose every output is a zero signed by the exact sequence of
/// products and sums. A shortcut that skips a product with a zero or with
/// one flips such signs.
#[test]
fn signed_zeros_are_bit_pinned() {
    let mut rng = StdRng::seed_from_u64(784);
    let noise = normal_cvector(784, &mut rng);
    let x = CVector::from_fn(784, |k| match k % 5 {
        0 => C64::new(0.0, 0.0),
        1 => C64::new(-0.0, 0.0),
        2 => C64::new(0.0, -0.0),
        3 => C64::new(noise[k].re, -0.0),
        _ => noise[k],
    });
    let got = [field_hash([&dft(&x)]), field_hash([&idft(&x)])];
    assert_eq!(
        got,
        [0x031f_33a1_bc8c_0d08, 0x903a_736b_79ab_d8fc],
        "got {got:#x?}"
    );
    const ZEROS: [(usize, u64, u64); 3] = [
        (16, 0x1359_fb5c_528e_7a25, 0x7eb3_1754_1cec_c725),
        (784, 0xbefd_9367_c873_b125, 0xc70f_77ab_b730_b125),
        (1024, 0x3416_8c65_f0c3_e625, 0x6c10_54a3_68e2_3325),
    ];
    let got: Vec<(usize, u64, u64)> = ZEROS
        .iter()
        .map(|&(n, _, _)| {
            let x = CVector::from_fn(n, |_| C64::new(-0.0, -0.0));
            (n, field_hash([&dft(&x)]), field_hash([&idft(&x)]))
        })
        .collect();
    assert_eq!(got, ZEROS, "got {got:#x?}");
}

#[test]
fn image_features_are_bit_pinned() {
    let mut rng = StdRng::seed_from_u64(61);
    let mut images: Vec<Image> = (0..10)
        .map(|c| SyntheticMnist::new().render(c, &mut rng))
        .collect();
    images.extend((0..10).map(|c| SyntheticFashion::new().render(c, &mut rng)));
    images.push(Image::new(28, 28));
    const PINS: [(usize, u64); 4] = [
        (1, 0x76c9_9212_1a47_5bed),
        (10, 0x7091_b548_dfe5_a5cf),
        (16, 0xc04b_0684_12c1_8f2c),
        (64, 0x935c_84e7_7a77_6c60),
    ];
    let got: Vec<(usize, u64)> = PINS
        .iter()
        .map(|&(k, _)| {
            let features: Vec<CVector> = images.iter().map(|img| dft_features(img, k)).collect();
            (k, field_hash(&features))
        })
        .collect();
    assert_eq!(got, PINS, "got {got:#x?}");
}

#[test]
fn task_features_are_bit_pinned() {
    let specs = [
        TaskSpec {
            train_size: 60,
            test_size: 30,
            ..TaskSpec::image(TaskKind::MnistLike, 10)
        },
        TaskSpec {
            train_size: 48,
            test_size: 24,
            ..TaskSpec::image(TaskKind::FashionLike, 16)
        },
    ];
    let got: Vec<[u64; 4]> = specs
        .iter()
        .map(|spec| {
            let task = build_task(spec, 62).unwrap();
            let [train, train_labels] = dataset_hash(&task.train);
            let [test, test_labels] = dataset_hash(&task.test);
            [train, train_labels, test, test_labels]
        })
        .collect();
    const PINS: [[u64; 4]; 2] = [
        [
            0xe378_0e7f_5fa0_0524,
            0x2beb_031a_3b22_2200,
            0xe48e_e034_3944_701c,
            0xa948_2e83_08f3_a502,
        ],
        [
            0xa75d_c420_bb58_3a17,
            0x19f5_1da2_3d94_4c28,
            0x5d3b_dacc_4478_07e6,
            0x69f1_fc8f_ef76_4167,
        ],
    ];
    assert_eq!(got, PINS, "got {got:#x?}");
}

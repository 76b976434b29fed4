//! Reduced rational numbers over `i64`.
//!
//! Media timing demands exact arithmetic: NTSC's 30000/1001 frame rate, CD
//! audio's 1/44100-second sample period, and the tick arithmetic that relates
//! them do not round-trip through `f64`. [`Rational`] keeps every value as a
//! fully reduced fraction with a positive denominator.
//!
//! Arithmetic reduces *before* it multiplies (Knuth, TAOCP §4.5.1): a sum
//! divides both denominators by their gcd `g1` first and then cancels only
//! `gcd(t mod g1, g1)` from the new numerator `t`; a product cross-cancels
//! each numerator against the other operand's denominator. Every gcd is one
//! 64-bit binary (Stein) gcd — shifts and subtractions, no division — so no
//! operation runs a Euclid loop on `i128`. `i128` carries only the products
//! themselves and the final range check (plus one 128-bit `%`/`/` in a sum
//! whose numerator leaves `i64`, which media timing never reaches).
//!
//! The reduced form of a fraction is unique, so results are exactly those
//! of reducing the full `i128` cross product, and overflow is unchanged: an
//! operation fails with [`TimeError::Overflow`] exactly when its *reduced*
//! result does not fit `i64/i64`, so reducible expressions never overflow
//! spuriously.

use crate::TimeError;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num/den` with `den > 0`, always fully reduced.
///
/// `Rational` implements total ordering, hashing and the standard arithmetic
/// operators. The operator impls panic on overflow or division by zero (which
/// cannot occur for in-range media timing); the `checked_*` methods report
/// these conditions as [`TimeError`] instead.
///
/// ```
/// use tbm_time::Rational;
/// let ntsc = Rational::new(30000, 1001);
/// assert_eq!(ntsc.recip() * Rational::from(30000), Rational::new(30000 * 1001, 30000));
/// assert_eq!(Rational::new(4, 8), Rational::new(1, 2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i64,
    den: i64, // invariant: den > 0 and gcd(|num|, den) == 1
}

/// Greatest common divisor of two magnitudes by Stein's binary algorithm:
/// `trailing_zeros` shifts and subtractions, no division. `gcd(0, b) == b`.
#[inline]
fn gcd(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `|t| mod m` for `m > 0`, on 64-bit operands whenever `t` fits `i64`.
#[inline]
fn rem_abs(t: i128, m: u64) -> u64 {
    match i64::try_from(t) {
        Ok(t) => t.unsigned_abs() % m,
        Err(_) => (t.unsigned_abs() % m as u128) as u64,
    }
}

/// `t / g` for `g > 0` dividing `t`, on 64-bit operands whenever `t` fits
/// `i64`.
#[inline]
fn div_exact(t: i128, g: u64) -> i128 {
    match i64::try_from(t) {
        Ok(t) => (t / g as i64) as i128,
        Err(_) => t / g as i128,
    }
}

/// Builds a rational from an already reduced fraction with a positive
/// denominator, failing with `Overflow { op }` when either part leaves `i64`.
#[inline]
fn narrow(num: i128, den: i128, op: &'static str) -> Result<Rational, TimeError> {
    match (i64::try_from(num), i64::try_from(den)) {
        (Ok(num), Ok(den)) => Ok(Rational { num, den }),
        _ => Err(TimeError::Overflow { op }),
    }
}

/// Applies a sign to a product of two magnitudes (each at most 2^63).
#[inline]
fn signed_product(negative: bool, a: u64, b: u64) -> i128 {
    let p = a as i128 * b as i128;
    if negative {
        -p
    } else {
        p
    }
}

impl Rational {
    /// Exact zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// Exact one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a reduced rational. Panics if `den == 0` or reduction overflows.
    ///
    /// Prefer [`Rational::checked_new`] when the inputs are untrusted.
    pub fn new(num: i64, den: i64) -> Rational {
        Rational::checked_new(num, den).expect("invalid rational")
    }

    /// Const-context constructor: creates a reduced rational at compile time.
    ///
    /// Panics (at compile time when used in a const) if `den == 0` or the
    /// magnitudes cannot be represented after reduction.
    pub const fn const_new(num: i64, den: i64) -> Rational {
        if den == 0 {
            panic!("rational denominator is zero");
        }
        let sign: i64 = if den < 0 { -1 } else { 1 };
        // const-friendly gcd on magnitudes
        let mut a = num.unsigned_abs();
        let mut b = den.unsigned_abs();
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        if a == 0 {
            return Rational { num: 0, den: 1 };
        }
        let num = sign * (num / a as i64);
        let den = sign * (den / a as i64);
        Rational { num, den }
    }

    /// Creates a reduced rational, reporting zero denominators and overflow.
    pub fn checked_new(num: i64, den: i64) -> Result<Rational, TimeError> {
        if den == 0 {
            return Err(TimeError::ZeroDenominator);
        }
        let g = gcd(num.unsigned_abs(), den.unsigned_abs());
        let num = signed_product((num < 0) != (den < 0), num.unsigned_abs() / g, 1);
        narrow(num, (den.unsigned_abs() / g) as i128, "reduce")
    }

    /// The (reduced) numerator. Carries the sign of the value.
    #[inline]
    pub fn numer(self) -> i64 {
        self.num
    }

    /// The (reduced) denominator; always positive.
    #[inline]
    pub fn denom(self) -> i64 {
        self.den
    }

    /// `true` when the value is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// `true` when the value is an integer.
    #[inline]
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// The sign of the value: `-1`, `0`, or `1`.
    #[inline]
    pub fn signum(self) -> i64 {
        self.num.signum()
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse. Panics when the value is zero.
    pub fn recip(self) -> Rational {
        self.checked_recip().expect("reciprocal of zero")
    }

    /// Multiplicative inverse, reporting zero input.
    pub fn checked_recip(self) -> Result<Rational, TimeError> {
        if self.num == 0 {
            return Err(TimeError::DivisionByZero);
        }
        let sign = self.num.signum();
        Ok(Rational {
            num: sign * self.den,
            den: self.num.abs(),
        })
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Rational) -> Result<Rational, TimeError> {
        self.add_sub(rhs, false, "add")
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Rational) -> Result<Rational, TimeError> {
        self.add_sub(rhs, true, "sub")
    }

    /// `self ± rhs`: with `g1 = gcd(d1, d2)` the numerator is
    /// `t = n1·(d2/g1) ± n2·(d1/g1)`, and the only factor it can share with
    /// the denominator `(d1/g1)·d2` is `g2 = gcd(t mod g1, g1)`.
    fn add_sub(self, rhs: Rational, sub: bool, op: &'static str) -> Result<Rational, TimeError> {
        let g1 = gcd(self.den as u64, rhs.den as u64) as i64;
        let a = self.num as i128 * (rhs.den / g1) as i128;
        let b = rhs.num as i128 * (self.den / g1) as i128;
        let t = if sub { a - b } else { a + b };
        if t == 0 {
            return Ok(Rational::ZERO);
        }
        let (num, rhs_den) = if g1 == 1 {
            (t, rhs.den)
        } else {
            let g2 = gcd(rem_abs(t, g1 as u64), g1 as u64);
            (div_exact(t, g2), rhs.den / g2 as i64)
        };
        narrow(num, (self.den / g1) as i128 * rhs_den as i128, op)
    }

    /// Checked multiplication: each numerator is cancelled against the
    /// other operand's denominator before the two products are taken.
    pub fn checked_mul(self, rhs: Rational) -> Result<Rational, TimeError> {
        let g1 = gcd(self.num.unsigned_abs(), rhs.den as u64);
        let g2 = gcd(rhs.num.unsigned_abs(), self.den as u64);
        let num = signed_product(
            (self.num < 0) != (rhs.num < 0),
            self.num.unsigned_abs() / g1,
            rhs.num.unsigned_abs() / g2,
        );
        let den = (self.den as u64 / g2) as i128 * (rhs.den as u64 / g1) as i128;
        narrow(num, den, "mul")
    }

    /// Checked division; reports division by zero. The numerators cancel
    /// against each other and the denominators against each other.
    pub fn checked_div(self, rhs: Rational) -> Result<Rational, TimeError> {
        if rhs.num == 0 {
            return Err(TimeError::DivisionByZero);
        }
        let g1 = gcd(self.num.unsigned_abs(), rhs.num.unsigned_abs());
        let g2 = gcd(self.den as u64, rhs.den as u64);
        let num = signed_product(
            (self.num < 0) != (rhs.num < 0),
            self.num.unsigned_abs() / g1,
            rhs.den as u64 / g2,
        );
        let den = (self.den as u64 / g2) as i128 * (rhs.num.unsigned_abs() / g1) as i128;
        narrow(num, den, "div")
    }

    /// Largest integer not greater than the value.
    pub fn floor(self) -> i64 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            // Rust's `/` truncates toward zero; adjust for negative values.
            (self.num - (self.den - 1)) / self.den
        }
    }

    /// Smallest integer not less than the value.
    pub fn ceil(self) -> i64 {
        if self.num > 0 {
            (self.num + (self.den - 1)) / self.den
        } else {
            self.num / self.den
        }
    }

    /// Nearest integer; exact halves round away from zero.
    pub fn round(self) -> i64 {
        let twice = Rational::new(self.num.signum(), 2);
        (self + twice).trunc_toward_neg_for_round(self.num.signum())
    }

    /// Helper for `round`: floor for positive bias, ceil for negative.
    fn trunc_toward_neg_for_round(self, sign: i64) -> i64 {
        if sign >= 0 {
            self.floor()
        } else {
            self.ceil()
        }
    }

    /// Lossy conversion to `f64`, for presentation only.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Rational {
        Rational { num: v, den: 1 }
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Rational {
        Rational {
            num: v as i64,
            den: 1,
        }
    }
}

impl From<u32> for Rational {
    fn from(v: u32) -> Rational {
        Rational {
            num: v as i64,
            den: 1,
        }
    }
}

impl Default for Rational {
    fn default() -> Rational {
        Rational::ZERO
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // Cross-multiply in i128; denominators are positive so order is preserved.
        let lhs = self.num as i128 * other.den as i128;
        let rhs = other.num as i128 * self.den as i128;
        lhs.cmp(&rhs)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(rhs).expect("rational add overflow")
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self.checked_sub(rhs).expect("rational sub overflow")
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(rhs).expect("rational mul overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        self.checked_div(rhs)
            .expect("rational div by zero/overflow")
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        *self = *self / rhs;
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The obviously-right arithmetic the gcd-before-multiply kernel must
    /// match: form the full cross product in `i128`, then reduce it with a
    /// Euclid loop on `i128`.
    mod reference {
        use super::*;

        fn gcd128(mut a: i128, mut b: i128) -> i128 {
            a = a.abs();
            b = b.abs();
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }

        fn reduce(num: i128, den: i128) -> Result<Rational, TimeError> {
            let sign = if den < 0 { -1 } else { 1 };
            let g = gcd128(num, den);
            let (num, den) = if g == 0 {
                (0, 1)
            } else {
                (sign * num / g, sign * den / g)
            };
            let num = i64::try_from(num).map_err(|_| TimeError::Overflow { op: "reduce" })?;
            let den = i64::try_from(den).map_err(|_| TimeError::Overflow { op: "reduce" })?;
            Ok(Rational { num, den })
        }

        fn with_op(
            r: Result<Rational, TimeError>,
            op: &'static str,
        ) -> Result<Rational, TimeError> {
            r.map_err(|_| TimeError::Overflow { op })
        }

        pub fn new(num: i64, den: i64) -> Result<Rational, TimeError> {
            if den == 0 {
                return Err(TimeError::ZeroDenominator);
            }
            reduce(num as i128, den as i128)
        }

        pub fn add(a: Rational, b: Rational) -> Result<Rational, TimeError> {
            let num = a.num as i128 * b.den as i128 + b.num as i128 * a.den as i128;
            with_op(reduce(num, a.den as i128 * b.den as i128), "add")
        }

        pub fn sub(a: Rational, b: Rational) -> Result<Rational, TimeError> {
            let num = a.num as i128 * b.den as i128 - b.num as i128 * a.den as i128;
            with_op(reduce(num, a.den as i128 * b.den as i128), "sub")
        }

        pub fn mul(a: Rational, b: Rational) -> Result<Rational, TimeError> {
            let num = a.num as i128 * b.num as i128;
            with_op(reduce(num, a.den as i128 * b.den as i128), "mul")
        }

        pub fn div(a: Rational, b: Rational) -> Result<Rational, TimeError> {
            if b.num == 0 {
                return Err(TimeError::DivisionByZero);
            }
            let num = a.num as i128 * b.den as i128;
            with_op(reduce(num, a.den as i128 * b.num as i128), "div")
        }

        pub fn cmp(a: Rational, b: Rational) -> Ordering {
            (a.num as i128 * b.den as i128).cmp(&(b.num as i128 * a.den as i128))
        }
    }

    /// Integers of mixed magnitude: small, up to 2^40, anywhere in `i64`,
    /// the extremes, and the denominators media timing actually uses (PAL
    /// frames, NTSC's 30000/1001, CD audio, microseconds).
    fn mixed() -> BoxedStrategy<i64> {
        prop_oneof![
            (-1000i64..1000).boxed(),
            (-(1i64 << 40)..1i64 << 40).boxed(),
            any::<i64>(),
            prop_oneof![
                Just(i64::MIN),
                Just(i64::MIN + 1),
                Just(i64::MAX),
                Just(i64::MAX - 1),
                Just(-1i64),
                Just(0i64),
            ],
            prop_oneof![
                Just(25i64),
                Just(1001i64),
                Just(30_000i64),
                Just(44_100i64),
                Just(1_000_000i64),
                Just(-25i64),
                Just(25_000_000i64),
            ],
        ]
        .boxed()
    }

    /// Asserts that the kernel agrees with the reference on every operation
    /// over `a` and `b`: values, `Ok`/`Err`, and the error itself.
    fn agree(a: Rational, b: Rational) -> Result<(), TestCaseError> {
        prop_assert_eq!(a.checked_add(b), reference::add(a, b), "{:?} + {:?}", a, b);
        prop_assert_eq!(a.checked_sub(b), reference::sub(a, b), "{:?} - {:?}", a, b);
        prop_assert_eq!(a.checked_mul(b), reference::mul(a, b), "{:?} * {:?}", a, b);
        prop_assert_eq!(a.checked_div(b), reference::div(a, b), "{:?} / {:?}", a, b);
        prop_assert_eq!(a.cmp(&b), reference::cmp(a, b), "{:?} cmp {:?}", a, b);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn kernel_matches_i128_reference(
            an in mixed(),
            ad in mixed(),
            bn in mixed(),
            bd in mixed(),
        ) {
            prop_assert_eq!(Rational::checked_new(an, ad), reference::new(an, ad));
            prop_assert_eq!(Rational::checked_new(bn, bd), reference::new(bn, bd));
            let (Ok(a), Ok(b)) = (reference::new(an, ad), reference::new(bn, bd)) else {
                return Ok(());
            };
            agree(a, b)?;
            agree(b, a)?;
            // Shared denominators take the equal-denominator paths.
            if let Ok(c) = reference::new(bn, ad) {
                agree(a, c)?;
            }
        }
    }

    #[test]
    fn wide_sum_with_a_large_common_factor() {
        // MAX/3 + (MAX-2)/3: the numerator 2^64 - 4 leaves i64, yet the 3
        // cancels and the sum fits — the kernel's 128-bit `%`/`/` fallback.
        let a = Rational::new(i64::MAX, 3);
        let b = Rational::new(i64::MAX - 2, 3);
        let sum = a.checked_add(b).unwrap();
        assert_eq!(sum, Rational::from(6_148_914_691_236_517_204i64));
        assert_eq!(6_148_914_691_236_517_204i128 * 3, (1i128 << 64) - 4);
        assert_eq!(Ok(sum), reference::add(a, b));
        assert_eq!(a.checked_sub(-b), reference::sub(a, -b));
    }

    #[test]
    fn reduces_on_construction() {
        assert_eq!(Rational::new(4, 8), Rational::new(1, 2));
        assert_eq!(Rational::new(-4, 8), Rational::new(-1, 2));
        assert_eq!(Rational::new(4, -8), Rational::new(-1, 2));
        assert_eq!(Rational::new(-4, -8), Rational::new(1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
    }

    #[test]
    fn zero_denominator_rejected() {
        assert_eq!(
            Rational::checked_new(1, 0).unwrap_err(),
            TimeError::ZeroDenominator
        );
    }

    #[test]
    fn arithmetic_basics() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::from(2));
        assert_eq!(-a, Rational::new(-1, 3));
    }

    #[test]
    fn ntsc_frame_times_are_exact() {
        // 30000/1001 fps: 30000 frames take exactly 1001 seconds.
        let rate = Rational::new(30000, 1001);
        let period = rate.recip();
        let total = period * Rational::from(30000);
        assert_eq!(total, Rational::from(1001));
    }

    #[test]
    fn ordering_is_exact() {
        assert!(Rational::new(1, 3) < Rational::new(34, 100));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert_eq!(
            Rational::new(2, 4).cmp(&Rational::new(1, 2)),
            Ordering::Equal
        );
    }

    #[test]
    fn floor_ceil_round() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(7, 2).round(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::new(-7, 2).round(), -4);
        assert_eq!(Rational::new(5, 3).round(), 2);
        assert_eq!(Rational::new(4, 3).round(), 1);
        assert_eq!(Rational::from(9).floor(), 9);
        assert_eq!(Rational::from(-9).ceil(), -9);
    }

    #[test]
    fn reciprocal() {
        assert_eq!(Rational::new(3, 4).recip(), Rational::new(4, 3));
        assert_eq!(Rational::new(-3, 4).recip(), Rational::new(-4, 3));
        assert!(Rational::ZERO.checked_recip().is_err());
    }

    #[test]
    fn division_by_zero_reported() {
        assert_eq!(
            Rational::ONE.checked_div(Rational::ZERO).unwrap_err(),
            TimeError::DivisionByZero
        );
    }

    #[test]
    fn overflow_reported_not_wrapped() {
        let big = Rational::from(i64::MAX);
        assert!(big.checked_add(Rational::ONE).is_err());
        assert!(big.checked_mul(Rational::from(2)).is_err());
    }

    #[test]
    fn reducible_intermediates_do_not_overflow() {
        // (MAX/3) * 3 stays in range because the 3s cancel before the product.
        let third = Rational::new(i64::MAX, 3);
        let r = third.checked_mul(Rational::from(3)).unwrap();
        assert_eq!(r, Rational::from(i64::MAX));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rational::new(30000, 1001).to_string(), "30000/1001");
        assert_eq!(Rational::from(25).to_string(), "25");
        assert_eq!(format!("{:?}", Rational::from(25)), "25/1");
    }

    #[test]
    fn min_max() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}

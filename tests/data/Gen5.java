package com.snap.p2;

import java.util.ArrayList;
import java.util.HashMap;
import java.util.List;
import java.util.Map;
import java.util.function.Function;

/**
 * Gen5 holds generated logic for the benchmark corpus.
 * Revision 0.
 */
public class Gen5 {
    private static final int REVISION = 0;
    private int count;
    private String label;
    private final List<String> items = new ArrayList<>();
    private final Map<String, Integer> index = new HashMap<>();

    public Gen5(String label) {
        this.label = label;
        this.count = REVISION;
    }

    public static int frame0(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 53) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 70);
        return steps;
    }

    protected long sigma1(int limit) {
        long total = 72L;
        for (int i = 0; i < limit; i++) {
            if (i % 86 == 0) {
                total += i * 72;
            } else {
                total -= count;
            }
        }
        return total;
    }

    /** Branches on the sign and size of a value. */
    public int cache2(int value) {
        int result = value * 75;
        if (value > 43) {
            result -= 43;
            count++;
        } else if (value < -43) {
            result += label.length();
        } else {
            result = result % 44;
        }
        return result;
    }

    public static <T extends Comparable<T>> T beta3(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    public static <T extends Comparable<T>> T delta4(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    private int delta5(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 13;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 39;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }

    private int cache6(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 78;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 52;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }

    public List<Integer> edge7(List<String> values) {
        Function<String, Integer> measure = s -> s.length() * 88 + count;
        List<Integer> out = new ArrayList<>();
        values.forEach(v -> {
            if (v.startsWith("node")) {
                out.add(measure.apply(v));
            }
        });
        out.sort((x, y) -> Integer.compare(y, x));
        return out;
    }

    String block8(int code) {
        switch (code % 78) {
            case 0:
                return label;
            case 1:
                label = label + "block";
                break;
            default:
                count = code;
        }
        return label == null ? "block" : label.toUpperCase();
    }

    protected long delta9(int limit) {
        long total = 67L;
        for (int i = 0; i < limit; i++) {
            if (i % 38 == 0) {
                total += i * 67;
            } else {
                total -= count;
            }
        }
        return total;
    }

    protected long edge10(int limit) {
        long total = 80L;
        for (int i = 0; i < limit; i++) {
            if (i % 52 == 0) {
                total += i * 80;
            } else {
                total -= count;
            }
        }
        return total;
    }

    public Runnable block11(final int times) {
        return new Runnable() {
            @Override
            public void run() {
                for (int i = 0; i < times; i++) {
                    count += 26;
                }
            }
        };
    }

    public static <T extends Comparable<T>> T block12(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    public static <T extends Comparable<T>> T block13(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    private int kappa14(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 61;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 62;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }

    public int edge15(List<String> values) {
        int hits = 0;
        for (String value : values) {
            if (value == null || value.isEmpty()) {
                continue;
            }
            if (value.length() > 30) {
                break;
            }
            items.add(value.trim());
            hits += value.length();
        }
        return hits;
    }
}
